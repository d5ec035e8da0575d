//! Deterministic simulated network between the coordinator and the nodes.
//!
//! Every interaction with a [`crate::replication::Node`] goes through a
//! [`SimNet`], which decides per message whether it is delivered and at
//! what simulated latency. Fault decisions are a **pure function of the
//! plan seed and the message's context** (destination, topic, attempt,
//! kind) — not of wall-clock time or thread interleaving — so a fault run
//! replays byte-identically from its seed, exactly like a difftest case.
//!
//! Two kinds of state exist on top of that stateless hash:
//!
//! * **node liveness** — crashed / partitioned / slow flags, togglable at
//!   runtime ([`SimNet::crash`], [`SimNet::restart`], [`SimNet::partition`],
//!   [`SimNet::heal`], [`SimNet::set_slow`]) and seedable from the
//!   [`FaultPlan`];
//! * **crash triggers** — `crash_after_messages` counts messages per node
//!   and downs the node permanently once the budget is exceeded, which is
//!   how tests crash a replica *mid-ingest* deterministically.
//!
//! Latency is simulated, not slept: a reply carries its virtual
//! round-trip in microseconds and the scatter-gather layer advances a
//! per-shard virtual clock, so deadlines, backoff, and hedging are all
//! exact and instant in CI.

use parking_lot::Mutex;

/// Index of a storage node.
pub type NodeId = usize;

/// What a message is for. Part of the per-message fault hash so that the
/// same (node, topic, attempt) pair gets independent fault draws for its
/// primary, hedge, and fallback sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Primary query send for one shard attempt.
    Query,
    /// Hedged (backup) query send.
    Hedge,
    /// Replica fallback send after a data error.
    Fallback,
    /// Ingest: store a block replica.
    Store,
    /// Ingest: roll a staged or committed replica back.
    Rollback,
}

impl MsgKind {
    fn salt(self) -> u64 {
        match self {
            MsgKind::Query => 0x51,
            MsgKind::Hedge => 0x48,
            MsgKind::Fallback => 0x46,
            MsgKind::Store => 0x53,
            MsgKind::Rollback => 0x52,
        }
    }
}

/// Per-message context fed into the fault hash.
#[derive(Debug, Clone, Copy)]
pub struct MsgCtx {
    /// What the message is about (shard id for queries, block number for
    /// ingest) — distinct topics get independent fault draws.
    pub topic: u64,
    /// Zero-based retry attempt, so a retried message is a *new* draw.
    pub attempt: u64,
    /// The message kind.
    pub kind: MsgKind,
}

/// The outcome of one simulated message round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered and answered after `latency_us` of simulated time.
    Reply {
        /// Simulated round-trip latency in microseconds.
        latency_us: u64,
    },
    /// Dropped, node down, or partitioned — the caller observes only its
    /// own timeout.
    Lost,
}

/// A seeded, declarative fault schedule for a [`SimNet`].
///
/// The default plan is a healthy low-latency network: no drops, no dead
/// or slow nodes, 100–200 µs simulated round-trips.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for every randomized decision (drops, latency jitter).
    pub seed: u64,
    /// Base simulated round-trip latency in microseconds.
    pub base_latency_us: u64,
    /// Uniform jitter added on top of the base latency.
    pub jitter_us: u64,
    /// Probability in `[0, 1]` that any given message is dropped.
    pub drop_rate: f64,
    /// Latency multiplier applied to slow nodes.
    pub slow_factor: u64,
    /// Nodes that are down from the start.
    pub dead_nodes: Vec<NodeId>,
    /// Nodes whose replies are `slow_factor` slower.
    pub slow_nodes: Vec<NodeId>,
    /// Nodes unreachable from the coordinator from the start.
    pub partitioned_nodes: Vec<NodeId>,
    /// `(node, n)`: the node crashes permanently after its n-th message.
    pub crash_after_messages: Vec<(NodeId, u64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            base_latency_us: 100,
            jitter_us: 100,
            drop_rate: 0.0,
            slow_factor: 20,
            dead_nodes: Vec::new(),
            slow_nodes: Vec::new(),
            partitioned_nodes: Vec::new(),
            crash_after_messages: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A healthy plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Whether the plan injects any fault at all (latency aside).
    pub fn has_faults(&self) -> bool {
        self.drop_rate > 0.0
            || !self.dead_nodes.is_empty()
            || !self.slow_nodes.is_empty()
            || !self.partitioned_nodes.is_empty()
            || !self.crash_after_messages.is_empty()
    }
}

#[derive(Debug)]
struct NodeState {
    up: bool,
    partitioned: bool,
    slow: bool,
    messages: u64,
    crash_after: Option<u64>,
}

/// Point-in-time liveness of one node, for status displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHealth {
    /// The node.
    pub id: NodeId,
    /// False once crashed (and not yet restarted).
    pub up: bool,
    /// True while partitioned away from the coordinator.
    pub partitioned: bool,
    /// True while marked slow.
    pub slow: bool,
}

impl NodeHealth {
    /// Whether the coordinator can currently reach the node.
    pub fn reachable(&self) -> bool {
        self.up && !self.partitioned
    }
}

/// The simulated network.
pub struct SimNet {
    plan: FaultPlan,
    state: Mutex<Vec<NodeState>>,
}

/// splitmix64 finalizer: the crate's one deterministic hash (fault draws,
/// placement, backoff jitter).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimNet {
    /// Builds a network for `nodes` nodes under `plan`.
    pub fn new(nodes: usize, plan: FaultPlan) -> Self {
        let state = (0..nodes)
            .map(|id| NodeState {
                up: !plan.dead_nodes.contains(&id),
                partitioned: plan.partitioned_nodes.contains(&id),
                slow: plan.slow_nodes.contains(&id),
                messages: 0,
                crash_after: plan
                    .crash_after_messages
                    .iter()
                    .find(|(n, _)| *n == id)
                    .map(|(_, limit)| *limit),
            })
            .collect();
        let net = Self {
            plan,
            state: Mutex::new(state),
        };
        net.publish_health();
        net
    }

    /// The plan this network runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// One simulated round-trip to `to`.
    pub fn rpc(&self, to: NodeId, ctx: MsgCtx) -> Delivery {
        telemetry::counter!("cluster.rpc.sent", 1);
        let slow = {
            let mut state = self.state.lock();
            let Some(node) = state.get_mut(to) else {
                telemetry::counter!("cluster.rpc.lost", 1);
                return Delivery::Lost;
            };
            node.messages += 1;
            if let Some(limit) = node.crash_after {
                if node.up && node.messages > limit {
                    node.up = false;
                    drop(state);
                    self.publish_health();
                    telemetry::counter!("cluster.rpc.lost", 1);
                    return Delivery::Lost;
                }
            }
            if !node.up || node.partitioned {
                telemetry::counter!("cluster.rpc.lost", 1);
                return Delivery::Lost;
            }
            node.slow
        };

        // Stateless per-message draw: destination, topic, attempt and kind
        // fully determine drop and jitter, independent of scheduling.
        let h = mix(
            self.plan.seed
                ^ mix(to as u64)
                ^ mix(ctx.topic.wrapping_mul(0x9e37_79b9))
                ^ mix(ctx.attempt.wrapping_add(0x1000 * ctx.kind.salt())),
        );
        if self.plan.drop_rate > 0.0 {
            let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
            if draw < self.plan.drop_rate {
                telemetry::counter!("cluster.rpc.dropped", 1);
                telemetry::counter!("cluster.rpc.lost", 1);
                return Delivery::Lost;
            }
        }
        let jitter = if self.plan.jitter_us > 0 {
            mix(h) % (self.plan.jitter_us + 1)
        } else {
            0
        };
        let mut latency_us = self.plan.base_latency_us.saturating_add(jitter);
        if slow {
            latency_us = latency_us.saturating_mul(self.plan.slow_factor.max(1));
        }
        Delivery::Reply { latency_us }
    }

    /// Crashes a node: unreachable until [`SimNet::restart`].
    pub fn crash(&self, node: NodeId) {
        self.set_state(node, |n| n.up = false);
    }

    /// Restarts a crashed node (committed storage survives; the storage
    /// layer separately discards anything only staged).
    pub fn restart(&self, node: NodeId) {
        self.set_state(node, |n| {
            n.up = true;
            // A restart clears a pending crash trigger — it already fired.
            if n.crash_after.is_some_and(|limit| n.messages > limit) {
                n.crash_after = None;
            }
        });
    }

    /// Partitions a node away from the coordinator.
    pub fn partition(&self, node: NodeId) {
        self.set_state(node, |n| n.partitioned = true);
    }

    /// Heals a partition.
    pub fn heal(&self, node: NodeId) {
        self.set_state(node, |n| n.partitioned = false);
    }

    /// Marks or unmarks a node slow (`slow_factor` latency multiplier).
    pub fn set_slow(&self, node: NodeId, slow: bool) {
        self.set_state(node, |n| n.slow = slow);
    }

    /// Whether the coordinator can currently reach `node`.
    pub fn reachable(&self, node: NodeId) -> bool {
        self.state
            .lock()
            .get(node)
            .is_some_and(|n| n.up && !n.partitioned)
    }

    /// Liveness of every node.
    pub fn health(&self) -> Vec<NodeHealth> {
        self.state
            .lock()
            .iter()
            .enumerate()
            .map(|(id, n)| NodeHealth {
                id,
                up: n.up,
                partitioned: n.partitioned,
                slow: n.slow,
            })
            .collect()
    }

    fn set_state(&self, node: NodeId, f: impl FnOnce(&mut NodeState)) {
        {
            let mut state = self.state.lock();
            if let Some(n) = state.get_mut(node) {
                f(n);
            }
        }
        self.publish_health();
    }

    /// Refreshes the `cluster.nodes_up` and per-node `cluster.node_up.N`
    /// health gauges from the current liveness state.
    fn publish_health(&self) {
        let state = self.state.lock();
        let mut up = 0i64;
        for (id, n) in state.iter().enumerate() {
            let reachable = n.up && !n.partitioned;
            up += i64::from(reachable);
            telemetry::gauge(&format!("cluster.node_up.{id}")).set(i64::from(reachable));
        }
        telemetry::gauge("cluster.nodes_up").set(up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(topic: u64, attempt: u64, kind: MsgKind) -> MsgCtx {
        MsgCtx {
            topic,
            attempt,
            kind,
        }
    }

    #[test]
    fn healthy_net_always_replies_deterministically() {
        let a = SimNet::new(3, FaultPlan::seeded(7));
        let b = SimNet::new(3, FaultPlan::seeded(7));
        for node in 0..3 {
            for attempt in 0..4 {
                let x = a.rpc(node, ctx(9, attempt, MsgKind::Query));
                let y = b.rpc(node, ctx(9, attempt, MsgKind::Query));
                assert_eq!(x, y);
                assert!(matches!(x, Delivery::Reply { .. }));
            }
        }
    }

    #[test]
    fn fault_draws_are_independent_of_send_order() {
        let plan = FaultPlan {
            seed: 11,
            drop_rate: 0.5,
            ..FaultPlan::default()
        };
        let forward = SimNet::new(2, plan.clone());
        let backward = SimNet::new(2, plan);
        let ctxs: Vec<MsgCtx> = (0..16).map(|i| ctx(i, 0, MsgKind::Query)).collect();
        let f: Vec<Delivery> = ctxs.iter().map(|c| forward.rpc(1, *c)).collect();
        let mut b: Vec<Delivery> = ctxs.iter().rev().map(|c| backward.rpc(1, *c)).collect();
        b.reverse();
        assert_eq!(f, b);
        assert!(f.contains(&Delivery::Lost), "0.5 drop rate");
        assert!(f.iter().any(|d| matches!(d, Delivery::Reply { .. })));
    }

    #[test]
    fn crash_partition_and_slow_are_togglable() {
        let net = SimNet::new(2, FaultPlan::seeded(1));
        let q = ctx(0, 0, MsgKind::Query);
        assert!(net.reachable(0));
        net.crash(0);
        assert_eq!(net.rpc(0, q), Delivery::Lost);
        net.restart(0);
        assert!(matches!(net.rpc(0, q), Delivery::Reply { .. }));
        net.partition(0);
        assert!(!net.reachable(0));
        assert_eq!(net.rpc(0, q), Delivery::Lost);
        net.heal(0);
        let Delivery::Reply { latency_us: fast } = net.rpc(0, q) else {
            panic!("healed node should reply");
        };
        net.set_slow(0, true);
        let Delivery::Reply { latency_us: slow } = net.rpc(0, q) else {
            panic!("slow node should still reply");
        };
        assert!(slow >= fast * 10, "slow {slow} vs fast {fast}");
        assert!(net.health()[0].slow);
    }

    #[test]
    fn crash_after_messages_downs_the_node_permanently() {
        let plan = FaultPlan {
            seed: 3,
            crash_after_messages: vec![(1, 2)],
            ..FaultPlan::default()
        };
        let net = SimNet::new(2, plan);
        let q = ctx(5, 0, MsgKind::Store);
        assert!(matches!(net.rpc(1, q), Delivery::Reply { .. }));
        assert!(matches!(net.rpc(1, q), Delivery::Reply { .. }));
        assert_eq!(net.rpc(1, q), Delivery::Lost, "third message crashes");
        assert_eq!(net.rpc(1, q), Delivery::Lost);
        assert!(!net.reachable(1));
        net.restart(1);
        assert!(matches!(net.rpc(1, q), Delivery::Reply { .. }));
    }

    #[test]
    fn dead_and_partitioned_plans_apply_from_start() {
        let plan = FaultPlan {
            seed: 2,
            dead_nodes: vec![0],
            partitioned_nodes: vec![2],
            slow_nodes: vec![1],
            ..FaultPlan::default()
        };
        let net = SimNet::new(3, plan);
        assert!(!net.reachable(0));
        assert!(net.reachable(1));
        assert!(!net.reachable(2));
        let health = net.health();
        assert!(!health[0].up && health[2].partitioned && health[1].slow);
        assert!(net.plan().has_faults());
        assert!(!FaultPlan::default().has_faults());
    }

    #[test]
    fn out_of_range_node_is_lost() {
        let net = SimNet::new(1, FaultPlan::default());
        assert_eq!(net.rpc(9, ctx(0, 0, MsgKind::Query)), Delivery::Lost);
    }
}
