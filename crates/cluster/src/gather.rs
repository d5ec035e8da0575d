//! Per-shard read path: deadlines, bounded retries with exponential
//! backoff + jitter, hedged reads, and replica fallback.
//!
//! Time here is **virtual**: a reply carries its simulated latency and
//! the loop advances a per-shard microsecond clock, so deadline and
//! backoff arithmetic is exact and a fault run completes instantly in
//! CI. The loop per attempt:
//!
//! 1. pick the primary replica by rotating the replica set with the
//!    attempt number (a dead primary is not retried forever);
//! 2. send the primary read; if its (virtual) latency exceeds the hedge
//!    threshold — or the message is lost — send a **hedged** read to the
//!    next replica and take whichever answer lands first;
//! 3. a delivered reply runs the real per-block query on that node; a
//!    data error (e.g. a corrupt replica) triggers immediate **fallback**
//!    to the surviving replicas (`cluster.read_fallback`);
//! 4. no answer within the attempt budget → exponential backoff with
//!    deterministic jitter, then retry, until the shard deadline.

use crate::replication::Node;
use crate::transport::{mix, Delivery, MsgCtx, MsgKind, NodeId, SimNet};

/// Retry/timeout/hedging knobs for the scatter-gather read path.
///
/// All times are virtual microseconds interpreted against simulated
/// message latencies, so the defaults behave identically on any host.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total virtual budget for one shard, backoff included.
    pub shard_deadline_us: u64,
    /// Virtual budget for a single attempt (one primary + one hedge).
    pub rpc_timeout_us: u64,
    /// Maximum attempts per shard (1 = no retries).
    pub max_attempts: u32,
    /// First backoff; doubles every retry.
    pub backoff_base_us: u64,
    /// A primary slower than this triggers a hedged read.
    pub hedge_after_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            shard_deadline_us: 50_000,
            rpc_timeout_us: 8_000,
            max_attempts: 5,
            backoff_base_us: 500,
            hedge_after_us: 1_500,
        }
    }
}

/// How one shard fared during a scatter-gather query.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// The shard.
    pub shard: usize,
    /// Blocks the shard holds, in block order.
    pub blocks: Vec<usize>,
    /// The shard's replica set.
    pub replicas: Vec<NodeId>,
    /// Whether the shard answered within its deadline.
    pub ok: bool,
    /// The replica that served the answer.
    pub served_by: Option<NodeId>,
    /// Attempts spent (1 = first try answered).
    pub attempts: u32,
    /// Whether a hedged read was sent.
    pub hedged: bool,
    /// Replica fallbacks taken after data errors.
    pub fallbacks: u32,
    /// Virtual time consumed by the shard, in microseconds.
    pub elapsed_us: u64,
    /// The last error when `ok` is false.
    pub error: Option<String>,
}

/// One shard's read, returning its status and (on success) the hits.
pub(crate) fn query_shard(
    net: &SimNet,
    nodes: &[Node],
    policy: &RetryPolicy,
    shard: usize,
    blocks: Vec<usize>,
    replicas: Vec<NodeId>,
    command: &str,
) -> (ShardStatus, Vec<(usize, u32, Vec<u8>)>) {
    let mut status = ShardStatus {
        shard,
        blocks,
        replicas: replicas.clone(),
        ok: false,
        served_by: None,
        attempts: 0,
        hedged: false,
        fallbacks: 0,
        elapsed_us: 0,
        error: None,
    };
    let n = replicas.len();
    let mut clock_us = 0u64;
    let mut last_error = "shard deadline exceeded".to_string();

    'attempts: for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            telemetry::counter!("cluster.retries", 1);
            let backoff = policy
                .backoff_base_us
                .saturating_mul(1 << (attempt - 1).min(10));
            let jitter = mix(net.plan().seed ^ ((shard as u64) << 8) ^ u64::from(attempt))
                % (backoff / 2 + 1);
            clock_us = clock_us.saturating_add(backoff + jitter);
        }
        if clock_us >= policy.shard_deadline_us {
            break;
        }
        status.attempts = attempt + 1;
        let budget = policy.rpc_timeout_us.min(policy.shard_deadline_us - clock_us);
        let primary = replicas[attempt as usize % n];
        let ctx = |kind| MsgCtx {
            topic: shard as u64,
            attempt: u64::from(attempt),
            kind,
        };

        // Primary send, then hedge if the primary is slow or lost.
        let mut candidates: Vec<(u64, NodeId)> = Vec::with_capacity(2);
        let primary_latency = match net.rpc(primary, ctx(MsgKind::Query)) {
            Delivery::Reply { latency_us } if latency_us <= budget => {
                candidates.push((latency_us, primary));
                Some(latency_us)
            }
            _ => None,
        };
        if n > 1
            && policy.hedge_after_us < budget
            && primary_latency.is_none_or(|l| l > policy.hedge_after_us)
        {
            let hedge = replicas[(attempt as usize + 1) % n];
            if hedge != primary {
                telemetry::counter!("cluster.hedges", 1);
                status.hedged = true;
                if let Delivery::Reply { latency_us } = net.rpc(hedge, ctx(MsgKind::Hedge)) {
                    let effective = policy.hedge_after_us.saturating_add(latency_us);
                    if effective <= budget {
                        candidates.push((effective, hedge));
                    }
                }
            }
        }
        candidates.sort_unstable();

        let Some(&(latency, winner)) = candidates.first() else {
            // Nothing answered within the attempt budget.
            telemetry::counter!("cluster.timeouts", 1);
            clock_us = clock_us.saturating_add(budget);
            continue;
        };
        clock_us = clock_us.saturating_add(latency);

        match nodes[winner].query_shard(shard, command) {
            Ok(hits) => {
                status.ok = true;
                status.served_by = Some(winner);
                status.elapsed_us = clock_us;
                return (status, hits);
            }
            Err(e) => {
                // Data error on a reachable replica (e.g. corruption):
                // fall back to the surviving replicas right away.
                last_error = e;
                let mut data_errors = 1usize;
                for &r in replicas.iter().filter(|&&r| r != winner) {
                    let Delivery::Reply { latency_us } = net.rpc(r, ctx(MsgKind::Fallback))
                    else {
                        continue;
                    };
                    if clock_us.saturating_add(latency_us) >= policy.shard_deadline_us {
                        continue;
                    }
                    telemetry::counter!("cluster.read_fallback", 1);
                    status.fallbacks += 1;
                    clock_us = clock_us.saturating_add(latency_us);
                    match nodes[r].query_shard(shard, command) {
                        Ok(hits) => {
                            status.ok = true;
                            status.served_by = Some(r);
                            status.elapsed_us = clock_us;
                            return (status, hits);
                        }
                        Err(e) => {
                            last_error = e;
                            data_errors += 1;
                        }
                    }
                }
                if data_errors == n {
                    // Every replica's data is bad; retrying cannot help.
                    break 'attempts;
                }
            }
        }
    }

    telemetry::counter!("cluster.shards_failed", 1);
    status.elapsed_us = clock_us.min(policy.shard_deadline_us);
    status.error = Some(last_error);
    (status, Vec::new())
}
