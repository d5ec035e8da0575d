//! Distributed LogGrep — the scaling direction §8 names as future work,
//! grown into a fault-tolerant replicated cluster.
//!
//! The paper's system compresses and queries one 64 MB block at a time on
//! one machine. This crate scales that out in-process, with failure as a
//! first-class, deterministic, CI-testable concern:
//!
//! * every coordinator↔node interaction goes through a seeded simulated
//!   network ([`SimNet`]) that can inject latency, message drops, node
//!   crashes/restarts, slow nodes, and partitions — replayable from its
//!   seed exactly like a difftest case;
//! * blocks hash to shards via an explicit [`ShardMap`] with
//!   **replication factor N**: ingest writes every replica and a block is
//!   acknowledged only when all replicas committed (otherwise the batch
//!   rolls back); reads fall back to surviving replicas;
//! * queries scatter per shard with **deadlines, bounded retries
//!   (exponential backoff + deterministic jitter), and hedged reads**,
//!   then gather in global line order. A failed shard no longer fails the
//!   query: [`ClusterResult`] carries partial results, per-shard
//!   [`ShardStatus`], and a `complete` flag, with an optional error
//!   budget that turns excessive failure back into an error;
//! * ingest has **admission control**: bounded per-node queues
//!   ([`pool::BoundedQueue`]) reject overload with
//!   [`ClusterError::Overloaded`] and a retry-after hint.
//!
//! Every node records into the process-wide telemetry registry
//! (`cluster.retries`, `cluster.hedges`, `cluster.read_fallback`,
//! `cluster.nodes_up`, ...), so the [`Cluster::serve_metrics`] embedding
//! exposes the combined view over HTTP.
//!
//! # Examples
//!
//! ```
//! use cluster::Cluster;
//! use loggrep::LogGrepConfig;
//!
//! let mut cluster = Cluster::new(4, LogGrepConfig::default()).unwrap();
//! cluster.ingest(b"a 1 ok\nb 2 err\na 3 ok\n", 2).unwrap();
//! let hits = cluster.query("ok").unwrap();
//! assert!(hits.complete);
//! assert_eq!(hits.lines.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod gather;
pub mod placement;
pub mod replication;
pub mod transport;

pub use gather::{RetryPolicy, ShardStatus};
pub use placement::ShardMap;
pub use replication::Node;
pub use transport::{Delivery, FaultPlan, MsgCtx, MsgKind, NodeHealth, NodeId, SimNet};

use loggrep::{LogGrep, LogGrepConfig};
use std::collections::BTreeMap;
use std::fmt;

/// How many times ingest retries an unreachable replica before giving up
/// on the batch.
const INGEST_RETRIES: u64 = 4;

/// The `cluster.blocks` gauge: logical blocks currently committed across
/// all in-process clusters (replicas of one block count once).
fn blocks_gauge() -> &'static telemetry::Gauge {
    static G: std::sync::OnceLock<&'static telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| telemetry::gauge("cluster.blocks"))
}

/// The `cluster.ingest_queue` gauge: blocks admitted but not yet
/// committed or rolled back, summed over the per-node queues.
fn ingest_queue_gauge() -> &'static telemetry::Gauge {
    static G: std::sync::OnceLock<&'static telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| telemetry::gauge("cluster.ingest_queue"))
}

/// Errors from cluster construction, ingest, and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Invalid topology (zero nodes, replication factor out of range, ...).
    Config(String),
    /// Ingest admission control rejected the batch: a node's queue is
    /// full. Retry after roughly `retry_after_ms` milliseconds.
    Overloaded {
        /// The node whose queue overflowed.
        node: NodeId,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// Ingest failed (compression error or a replica set that could not
    /// be written); the batch was rolled back.
    Ingest(String),
    /// The query itself is invalid (parse error).
    Query(String),
    /// More shards failed than the caller's error budget allows.
    BudgetExceeded {
        /// Shards that did not answer.
        failed: usize,
        /// The caller's budget.
        budget: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "invalid cluster config: {e}"),
            ClusterError::Overloaded {
                node,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: node {node} ingest queue is full, retry after {retry_after_ms} ms"
            ),
            ClusterError::Ingest(e) => write!(f, "ingest failed (batch rolled back): {e}"),
            ClusterError::Query(e) => write!(f, "invalid query: {e}"),
            ClusterError::BudgetExceeded { failed, budget } => write!(
                f,
                "{failed} shard(s) failed, exceeding the error budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Cluster topology and behavior knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes (must be ≥ 1).
    pub nodes: usize,
    /// Copies of every shard (must be in `1..=nodes`).
    pub replication: usize,
    /// Number of shards; 0 means `4 × nodes`.
    pub shards: usize,
    /// Per-node ingest admission queue capacity (blocks).
    pub queue_capacity: usize,
    /// Engine configuration shared by all nodes.
    pub engine: LogGrepConfig,
    /// Simulated-network fault schedule.
    pub faults: FaultPlan,
    /// Read-path retry/timeout/hedging policy.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    /// A single-replica configuration for `nodes` nodes over a healthy
    /// network — the drop-in equivalent of the pre-replication cluster.
    pub fn for_nodes(nodes: usize, engine: LogGrepConfig) -> Self {
        Self {
            nodes,
            replication: 1,
            shards: 0,
            queue_capacity: 128,
            engine,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Per-query options.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOpts {
    /// Maximum failed shards tolerated before the query returns
    /// [`ClusterError::BudgetExceeded`] instead of a partial result.
    /// `None` (the default) always returns the partial result and lets
    /// the caller inspect [`ClusterResult::complete`].
    pub max_failed_shards: Option<usize>,
}

/// A query result gathered from the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Matching lines from every shard that answered, in global log order.
    pub lines: Vec<Vec<u8>>,
    /// `(block, line-in-block)` of each hit, parallel to `lines`.
    pub locations: Vec<(usize, u32)>,
    /// True when every shard answered within its deadline.
    pub complete: bool,
    /// Per-shard outcome, in shard order (only shards that hold blocks).
    pub shards: Vec<ShardStatus>,
}

impl ClusterResult {
    /// The shards that did not answer.
    pub fn failed_shards(&self) -> impl Iterator<Item = &ShardStatus> {
        self.shards.iter().filter(|s| !s.ok)
    }
}

/// An in-process replicated LogGrep cluster.
pub struct Cluster {
    config: ClusterConfig,
    map: ShardMap,
    net: SimNet,
    nodes: Vec<Node>,
    engine: LogGrep,
    queues: Vec<pool::BoundedQueue<usize>>,
    /// Committed blocks per shard, in block order.
    blocks_by_shard: BTreeMap<usize, Vec<usize>>,
    next_block: usize,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("map", &self.map)
            .field("blocks", &self.block_count())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Creates a cluster of `nodes` empty single-replica nodes sharing one
    /// engine configuration over a healthy simulated network.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`] when `nodes` is zero (this was a
    /// documented panic before the API was hardened).
    pub fn new(nodes: usize, config: LogGrepConfig) -> Result<Self, ClusterError> {
        Self::with_config(ClusterConfig::for_nodes(nodes, config))
    }

    /// Creates a cluster from a full [`ClusterConfig`].
    pub fn with_config(config: ClusterConfig) -> Result<Self, ClusterError> {
        let shards = if config.shards == 0 {
            config.nodes.saturating_mul(4)
        } else {
            config.shards
        };
        let map = ShardMap::new(config.nodes, shards, config.replication)
            .map_err(ClusterError::Config)?;
        let net = SimNet::new(config.nodes, config.faults.clone());
        let nodes = (0..config.nodes).map(Node::new).collect();
        let queues = (0..config.nodes)
            .map(|_| pool::BoundedQueue::new(config.queue_capacity))
            .collect();
        let engine = LogGrep::new(config.engine.clone());
        Ok(Self {
            map,
            net,
            nodes,
            engine,
            queues,
            blocks_by_shard: BTreeMap::new(),
            next_block: 0,
            config,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total committed logical blocks across the cluster.
    pub fn block_count(&self) -> usize {
        self.blocks_by_shard.values().map(Vec::len).sum()
    }

    /// The nodes (for inspection in tests and examples).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The explicit shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The simulated network, for runtime fault injection.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Crashes a node (unreachable until restarted).
    pub fn crash_node(&mut self, node: NodeId) {
        self.net.crash(node);
    }

    /// Restarts a crashed node. Committed replicas survive; staged
    /// replicas from interrupted ingests are discarded (crash safety).
    pub fn restart_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.restart();
        }
        self.net.restart(node);
    }

    /// Partitions a node away from the coordinator.
    pub fn partition_node(&mut self, node: NodeId) {
        self.net.partition(node);
    }

    /// Heals a partitioned node.
    pub fn heal_node(&mut self, node: NodeId) {
        self.net.heal(node);
    }

    /// Marks or unmarks a node as slow.
    pub fn set_slow_node(&mut self, node: NodeId, slow: bool) {
        self.net.set_slow(node, slow);
    }

    /// Splits `raw` into blocks of at most `block_bytes` (on line
    /// boundaries), admits them, compresses them in parallel, and writes
    /// every block to all replicas of its shard. A block is acknowledged
    /// only once every replica committed; any failure rolls the whole batch
    /// back. Returns the number of blocks ingested.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::Overloaded`] — a node's admission queue is full;
    ///   nothing was compressed or ingested, retry after the hinted delay.
    /// * [`ClusterError::Ingest`] — compression failed or a replica set
    ///   could not be written; the batch was rolled back and the cluster
    ///   is exactly as before the call.
    pub fn ingest(&mut self, raw: &[u8], block_bytes: usize) -> Result<usize, ClusterError> {
        let _span = telemetry::span("cluster/ingest");
        // The block count is all admission needs: a rejected batch costs a
        // scan for newlines, not its compression.
        let n = loggrep::split_blocks(raw, block_bytes).len();
        if n == 0 {
            return Ok(0);
        }
        let first = self.next_block;

        // Admission control: every replica write must fit its node's
        // bounded queue, or the whole batch is rejected, no replica touched.
        let mut admitted: Vec<NodeId> = Vec::with_capacity(n * self.map.replication());
        for i in 0..n {
            let shard = self.map.shard_of_block(first + i);
            for r in self.map.replicas(shard) {
                match self.queues[r].try_push(first + i) {
                    Ok(_) => admitted.push(r),
                    Err(_) => {
                        for &a in &admitted {
                            self.queues[a].pop();
                        }
                        telemetry::counter!("cluster.overloaded", 1);
                        let retry_after_ms = (self.queues[r].len() as u64).max(1) * 2;
                        return Err(ClusterError::Overloaded {
                            node: r,
                            retry_after_ms,
                        });
                    }
                }
            }
        }
        ingest_queue_gauge().set(admitted.len() as i64);

        // The engine splits the same way again and owns the one worker
        // pool: order-preserving and byte-identical to serial.
        let boxes = match self.engine.compress_blocks(raw, block_bytes) {
            Ok(boxes) => boxes,
            Err(e) => {
                self.drain_queues();
                return Err(ClusterError::Ingest(e.to_string()));
            }
        };
        telemetry::counter!("cluster.blocks_ingested", n as u64);

        // Replicated two-phase write: stage on every replica, then commit.
        let mut committed: Vec<usize> = Vec::with_capacity(n);
        for (i, boxed) in boxes.iter().enumerate() {
            let bytes = &boxed.to_bytes();
            let block_no = first + i;
            let shard = self.map.shard_of_block(block_no);
            let replicas = self.map.replicas(shard);
            let mut prepared: Vec<NodeId> = Vec::with_capacity(replicas.len());
            let mut failure: Option<String> = None;
            for &r in &replicas {
                if self.store_replica(r, block_no, shard, bytes) {
                    prepared.push(r);
                } else {
                    failure = Some(format!(
                        "replica node {r} unreachable while writing block {block_no}"
                    ));
                    break;
                }
            }
            if let Some(err) = failure {
                for &r in &prepared {
                    self.nodes[r].abort(block_no);
                }
                self.rollback_batch(&committed);
                self.drain_queues();
                return Err(ClusterError::Ingest(err));
            }
            for &r in &replicas {
                self.nodes[r].commit(block_no);
                self.queues[r].pop();
            }
            blocks_gauge().add(1);
            self.blocks_by_shard.entry(shard).or_default().push(block_no);
            committed.push(block_no);
            ingest_queue_gauge().set(
                self.queues.iter().map(pool::BoundedQueue::len).sum::<usize>() as i64,
            );
        }
        self.next_block += n;
        Ok(n)
    }

    /// Stages one replica through the simulated network, with bounded
    /// retries for dropped messages.
    fn store_replica(&mut self, node: NodeId, block_no: usize, shard: usize, bytes: &[u8]) -> bool {
        for attempt in 0..INGEST_RETRIES {
            let ctx = MsgCtx {
                topic: block_no as u64,
                attempt,
                kind: MsgKind::Store,
            };
            if let Delivery::Reply { .. } = self.net.rpc(node, ctx) {
                self.nodes[node].stage(block_no, shard, bytes.to_vec());
                return true;
            }
            if attempt > 0 {
                telemetry::counter!("cluster.retries", 1);
            }
        }
        false
    }

    /// Rolls back every block of a failed batch from all its replicas.
    fn rollback_batch(&mut self, committed: &[usize]) {
        if committed.is_empty() {
            return;
        }
        telemetry::counter!("cluster.ingest_rollback", 1);
        for &block_no in committed {
            let shard = self.map.shard_of_block(block_no);
            for r in self.map.replicas(shard) {
                // Best-effort rollback message; the state change is
                // authoritative (the coordinator's abort record).
                // lint:allow(swallowed-result) — a failed rollback RPC is re-driven by the abort record; nothing to handle here
                let _ = self.net.rpc(
                    r,
                    MsgCtx {
                        topic: block_no as u64,
                        attempt: 0,
                        kind: MsgKind::Rollback,
                    },
                );
                self.nodes[r].drop_block(block_no);
            }
            blocks_gauge().add(-1);
            if let Some(list) = self.blocks_by_shard.get_mut(&shard) {
                list.retain(|&b| b != block_no);
                if list.is_empty() {
                    self.blocks_by_shard.remove(&shard);
                }
            }
        }
    }

    fn drain_queues(&self) {
        for q in &self.queues {
            q.clear();
        }
        ingest_queue_gauge().set(0);
    }

    /// Scatter-gather query with the default options: failed shards yield
    /// a partial result (`complete == false`), never an error.
    pub fn query(&self, command: &str) -> Result<ClusterResult, ClusterError> {
        self.query_with(command, &QueryOpts::default())
    }

    /// Scatter-gather query: every shard is read from its replica set
    /// under the configured [`RetryPolicy`]; results merge in global
    /// order. Shards that miss their deadline are reported in
    /// [`ClusterResult::shards`] and drop the `complete` flag; when
    /// `opts.max_failed_shards` is set and exceeded, the query returns
    /// [`ClusterError::BudgetExceeded`] instead.
    pub fn query_with(
        &self,
        command: &str,
        opts: &QueryOpts,
    ) -> Result<ClusterResult, ClusterError> {
        let _trace = telemetry::trace_scope();
        let _span = telemetry::span("cluster/query");
        telemetry::counter!("cluster.queries", 1);
        // Parse once at the coordinator so an invalid query is an error,
        // not a unanimous "partial" failure.
        loggrep::Query::parse(command).map_err(|e| ClusterError::Query(e.to_string()))?;

        let mut statuses = Vec::with_capacity(self.blocks_by_shard.len());
        let mut hits: Vec<(usize, u32, Vec<u8>)> = Vec::new();
        for (&shard, blocks) in &self.blocks_by_shard {
            let (status, shard_hits) = gather::query_shard(
                &self.net,
                &self.nodes,
                &self.config.retry,
                shard,
                blocks.clone(),
                self.map.replicas(shard),
                command,
            );
            hits.extend(shard_hits);
            statuses.push(status);
        }

        let failed = statuses.iter().filter(|s| !s.ok).count();
        let complete = failed == 0;
        if !complete {
            telemetry::counter!("cluster.partial_results", 1);
        }
        if let Some(budget) = opts.max_failed_shards {
            if failed > budget {
                return Err(ClusterError::BudgetExceeded { failed, budget });
            }
        }

        // Global order: block number, then the per-block logical timestamp.
        hits.sort_by_key(|h| (h.0, h.1));
        let mut lines = Vec::with_capacity(hits.len());
        let mut locations = Vec::with_capacity(hits.len());
        for (block, lineno, line) in hits {
            locations.push((block, lineno));
            lines.push(line);
        }
        Ok(ClusterResult {
            lines,
            locations,
            complete,
            shards: statuses,
        })
    }

    /// Total stored bytes across the cluster, replicas included.
    pub fn stored_bytes(&self) -> usize {
        self.nodes.iter().map(Node::stored_bytes).sum()
    }

    /// Fault injection for tests: applies seeded xorshift bit flips (the
    /// corrupt-archive mutation technique from the robustness suite) to
    /// one committed replica's stored bytes, invalidating its archive
    /// cache so the next read hits the corruption. Returns false when the
    /// node holds no replica of that block.
    pub fn corrupt_replica(&mut self, node: NodeId, block_no: usize, seed: u64) -> bool {
        self.corrupt_replica_with(node, block_no, |bytes| {
            let mut state = seed | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            for _ in 0..16 {
                let r = next();
                if bytes.is_empty() {
                    break;
                }
                let at = (r % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << ((r >> 32) % 8);
            }
        })
    }

    /// Like [`Cluster::corrupt_replica`] with a caller-supplied mutator.
    pub fn corrupt_replica_with(
        &mut self,
        node: NodeId,
        block_no: usize,
        f: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        self.nodes
            .get_mut(node)
            .is_some_and(|n| n.corrupt_block(block_no, f))
    }

    /// Starts an embedded metrics endpoint for this process.
    ///
    /// Every node shares the process-wide telemetry registry, so the
    /// served `/metrics` page is the aggregation of all shards: cluster
    /// spans, retry/hedge/fallback counters, per-node health gauges, pool
    /// gauges, and cache counters in one Prometheus exposition. Pass
    /// `"127.0.0.1:0"` to bind an ephemeral port (read it back via
    /// [`telemetry::MetricsServer::local_addr`]).
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<telemetry::MetricsServer> {
        telemetry::MetricsServer::bind(addr)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        blocks_gauge().add(-(self.block_count() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggrep::query::lang::Query;
    use logparse::DEFAULT_DELIMS;

    fn sample(lines: usize) -> Vec<u8> {
        let mut raw = Vec::new();
        for i in 0..lines {
            raw.extend_from_slice(
                format!(
                    "{} req {} from host{}\n",
                    if i % 13 == 0 { "ERROR" } else { "INFO" },
                    i,
                    i % 7
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

    #[test]
    fn cluster_matches_oracle_in_global_order() {
        let raw = sample(2000);
        let mut cluster = Cluster::new(3, LogGrepConfig::default()).unwrap();
        let blocks = cluster.ingest(&raw, 8 * 1024).unwrap();
        assert!(blocks > 3, "want multiple blocks, got {blocks}");
        assert_eq!(cluster.block_count(), blocks);

        for q in ["ERROR", "host3", "ERROR and host3", "req 1999"] {
            let result = cluster.query(q).unwrap();
            assert!(result.complete, "query `{q}` should be complete");
            assert_eq!(result.lines, oracle(&raw, q), "query `{q}`");
        }
    }

    #[test]
    fn zero_nodes_is_a_config_error_not_a_panic() {
        let err = Cluster::new(0, LogGrepConfig::default()).unwrap_err();
        assert!(matches!(err, ClusterError::Config(_)), "{err}");
        assert!(err.to_string().contains("at least one node"));
    }

    #[test]
    fn replication_factor_is_validated() {
        let cfg = ClusterConfig {
            replication: 4,
            ..ClusterConfig::for_nodes(2, LogGrepConfig::default())
        };
        let err = Cluster::with_config(cfg).unwrap_err();
        assert!(matches!(err, ClusterError::Config(_)), "{err}");
    }

    #[test]
    fn replication_places_every_block_n_times() {
        let raw = sample(1200);
        let cfg = ClusterConfig {
            replication: 2,
            ..ClusterConfig::for_nodes(4, LogGrepConfig::default())
        };
        let mut cluster = Cluster::with_config(cfg).unwrap();
        let blocks = cluster.ingest(&raw, 4 * 1024).unwrap();
        let replica_total: usize = cluster.nodes().iter().map(Node::block_count).sum();
        assert_eq!(replica_total, blocks * 2, "every block on two nodes");
        assert_eq!(cluster.block_count(), blocks, "logical count ignores replicas");
        let result = cluster.query("ERROR").unwrap();
        assert!(result.complete);
        assert_eq!(result.lines, oracle(&raw, "ERROR"));
    }

    #[test]
    fn incremental_ingest_appends() {
        let a = sample(300);
        let b = sample(300);
        let mut cluster = Cluster::new(2, LogGrepConfig::default()).unwrap();
        cluster.ingest(&a, 4 * 1024).unwrap();
        let before = cluster.query("INFO").unwrap().lines.len();
        cluster.ingest(&b, 4 * 1024).unwrap();
        let after = cluster.query("INFO").unwrap().lines.len();
        assert_eq!(after, before * 2);
    }

    #[test]
    fn empty_cluster_and_empty_input() {
        let mut cluster = Cluster::new(2, LogGrepConfig::default()).unwrap();
        let empty = cluster.query("x").unwrap();
        assert_eq!(empty.lines.len(), 0);
        assert!(empty.complete);
        assert_eq!(cluster.ingest(b"", 1024).unwrap(), 0);
        assert_eq!(cluster.stored_bytes(), 0);
    }

    #[test]
    fn invalid_query_is_an_error_not_a_partial_result() {
        let mut cluster = Cluster::new(2, LogGrepConfig::default()).unwrap();
        cluster.ingest(&sample(100), 1024).unwrap();
        let err = cluster.query("and and and").unwrap_err();
        assert!(matches!(err, ClusterError::Query(_)), "{err}");
    }

    #[test]
    fn ingest_backpressure_rejects_with_retry_after() {
        let cfg = ClusterConfig {
            queue_capacity: 2,
            ..ClusterConfig::for_nodes(2, LogGrepConfig::default())
        };
        let mut cluster = Cluster::with_config(cfg).unwrap();
        let raw = sample(2000);
        let err = cluster.ingest(&raw, 512).unwrap_err();
        let ClusterError::Overloaded { retry_after_ms, .. } = err else {
            panic!("expected Overloaded, got {err}");
        };
        assert!(retry_after_ms >= 1);
        // Rejection is clean: nothing was admitted or committed.
        assert_eq!(cluster.block_count(), 0);
        assert_eq!(cluster.stored_bytes(), 0);
        // A batch that fits the queues still works afterwards.
        assert!(cluster.ingest(&sample(40), 4 * 1024).is_ok());
    }

    #[test]
    fn admission_runs_before_compression() {
        let cfg = ClusterConfig {
            queue_capacity: 2,
            ..ClusterConfig::for_nodes(2, LogGrepConfig::default())
        };
        let mut cluster = Cluster::with_config(cfg).unwrap();
        // A NUL byte fails compression, but a full queue answers first.
        let mut raw = sample(2000);
        raw[100] = 0;
        let err = cluster.ingest(&raw, 512).unwrap_err();
        assert!(matches!(err, ClusterError::Overloaded { .. }), "{err}");
        assert_eq!(cluster.block_count(), 0);
    }

    #[test]
    fn failed_compression_frees_its_queue_slots() {
        // One node, so every block of a batch queues on it.
        let cfg = ClusterConfig {
            queue_capacity: 3,
            ..ClusterConfig::for_nodes(1, LogGrepConfig::default())
        };
        let mut cluster = Cluster::with_config(cfg).unwrap();
        let raw = sample(300);
        let block_bytes = raw.len() / 3 + 1;
        assert_eq!(loggrep::split_blocks(&raw, block_bytes).len(), 3);
        let mut bad = raw.clone();
        bad[10] = 0;
        let err = cluster.ingest(&bad, block_bytes).unwrap_err();
        assert!(matches!(err, ClusterError::Ingest(_)), "{err}");
        // The failed batch held all three slots; a full-capacity batch fits.
        assert_eq!(cluster.ingest(&raw, block_bytes).unwrap(), 3);
        assert_eq!(cluster.block_count(), 3);
    }

    #[test]
    fn serve_metrics_exposes_cluster_counters() {
        use std::io::{Read, Write};
        telemetry::set_enabled(true);
        let raw = sample(200);
        let mut cluster = Cluster::new(2, LogGrepConfig::default()).unwrap();
        cluster.ingest(&raw, 2 * 1024).unwrap();
        cluster.query("ERROR").unwrap();

        let mut server = cluster.serve_metrics("127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200"), "{body}");
        assert!(body.contains("loggrep_cluster_queries_total"), "{body}");
        assert!(body.contains("loggrep_cluster_blocks_ingested_total"), "{body}");
        assert!(body.contains("loggrep_cluster_rpc_sent_total"), "{body}");
        server.shutdown();
    }

    #[test]
    fn locations_identify_blocks() {
        let raw = sample(1000);
        let mut cluster = Cluster::new(2, LogGrepConfig::default()).unwrap();
        let blocks = cluster.ingest(&raw, 4 * 1024).unwrap();
        let result = cluster.query("ERROR").unwrap();
        assert!(!result.locations.is_empty());
        assert!(result.locations.iter().all(|(b, _)| *b < blocks));
        // Locations are in global order.
        assert!(result.locations.windows(2).all(|w| w[0] <= w[1]));
    }
}
