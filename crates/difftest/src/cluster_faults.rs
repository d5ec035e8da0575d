//! Cluster-under-faults differential mode (`difftest --cluster-faults`).
//!
//! Each case generates an adversarial log and query with [`crate::genlog`]
//! and [`crate::query::QueryAst`], ingests the log into a replicated
//! [`cluster::Cluster`] running over a seeded fault schedule (message
//! drops, slow nodes, runtime crashes and partitions, crash-mid-ingest
//! triggers), queries it, and checks the partial-results contract against
//! the trivially-correct [`crate::oracle`] line scanner:
//!
//! * the returned lines must be **exactly** the oracle's matches over the
//!   blocks of every shard reported `ok` — a shard either answers
//!   correctly or is labeled failed, never silently wrong or truncated;
//! * when the schedule leaves every shard at least one reachable replica
//!   and no message drops, the result must be `complete` and equal the
//!   full oracle;
//! * an ingest that fails under faults must roll back to an empty
//!   cluster — half-ingested state is a disagreement too.
//!
//! Everything derives from `case_seed(seed, case)`, so any disagreement
//! reproduces from its seed pair alone.

use crate::query::QueryAst;
use crate::{case_seed, genlog, oracle};
use cluster::{Cluster, ClusterConfig, FaultPlan};
use loggrep::LogGrepConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one cluster-faults case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Distinct fault knobs active in this case (drops, slow, crashes,
    /// partitions, ingest-crash triggers).
    pub faults_injected: u64,
    /// Replica fallbacks taken across all shards.
    pub fallbacks: u64,
    /// Retry attempts beyond the first, summed over shards.
    pub retries: u64,
    /// Whether the ingest was aborted (and rolled back) by the schedule.
    pub ingest_aborted: bool,
    /// Whether the final query result was complete.
    pub complete: bool,
    /// A broken invariant, if any — `None` is a pass.
    pub disagreement: Option<String>,
}

/// Runs one seeded cluster-faults case.
pub fn run_case(seed: u64, case: u64) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case));
    let blocks = genlog::generate_blocks(&mut rng);
    let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
    let ast = QueryAst::generate(&mut rng, &lines);
    let mut raw = Vec::new();
    for line in &lines {
        raw.extend_from_slice(line);
        raw.push(b'\n');
    }

    let mut out = CaseOutcome {
        faults_injected: 0,
        fallbacks: 0,
        retries: 0,
        ingest_aborted: false,
        complete: false,
        disagreement: None,
    };

    // Seeded topology and fault schedule.
    let nodes = rng.gen_range(2..5usize);
    let replication = rng.gen_range(1..nodes + 1);
    let shards = nodes * rng.gen_range(2..5usize);
    let block_bytes = rng.gen_range(256..2049usize);
    let drop_rate = *[0.0, 0.0, 0.1, 0.25].get(rng.gen_range(0..4usize)).unwrap();
    let slow_node = rng.gen_bool(0.4).then(|| rng.gen_range(0..nodes));
    let ingest_crash = rng.gen_bool(0.25).then(|| {
        (rng.gen_range(0..nodes), rng.gen_range(2..12u64))
    });
    if drop_rate > 0.0 {
        out.faults_injected += 1;
    }
    if slow_node.is_some() {
        out.faults_injected += 1;
    }
    if ingest_crash.is_some() {
        out.faults_injected += 1;
    }

    let plan = FaultPlan {
        seed: case_seed(seed, case),
        drop_rate,
        slow_nodes: slow_node.into_iter().collect(),
        crash_after_messages: ingest_crash.into_iter().collect(),
        ..FaultPlan::default()
    };
    let config = |faults: FaultPlan| ClusterConfig {
        replication,
        shards,
        queue_capacity: 4096,
        faults,
        ..ClusterConfig::for_nodes(nodes, LogGrepConfig::default())
    };

    let mut c = match Cluster::with_config(config(plan.clone())) {
        Ok(c) => c,
        Err(e) => {
            out.disagreement = Some(format!("valid config rejected: {e}"));
            return out;
        }
    };
    if c.ingest(&raw, block_bytes).is_err() {
        // The schedule broke the ingest; the contract is a total rollback.
        out.ingest_aborted = true;
        if c.block_count() != 0 || c.nodes().iter().any(|n| n.block_count() != 0) {
            out.disagreement = Some(format!(
                "aborted ingest leaked state: {} logical blocks, {:?} replicas",
                c.block_count(),
                c.nodes().iter().map(|n| n.block_count()).collect::<Vec<_>>()
            ));
            return out;
        }
        // Re-run the case on a drop-free, trigger-free network so the
        // read path is still exercised.
        let retry_plan = FaultPlan {
            drop_rate: 0.0,
            crash_after_messages: Vec::new(),
            ..plan
        };
        c = Cluster::with_config(config(retry_plan)).expect("validated above");
        if let Err(e) = c.ingest(&raw, block_bytes) {
            out.disagreement = Some(format!("healthy re-ingest failed: {e}"));
            return out;
        }
    }

    // Runtime faults: crash fewer nodes than the replication factor
    // (recoverable), and sometimes partition one more (possibly not).
    let crashes = rng.gen_range(0..replication);
    for k in 0..crashes {
        c.crash_node((k * 2 + 1) % nodes);
        out.faults_injected += 1;
    }
    if rng.gen_bool(0.3) {
        c.partition_node(rng.gen_range(0..nodes));
        out.faults_injected += 1;
    }

    let result = match c.query(&ast.render()) {
        Ok(r) => r,
        Err(e) => {
            out.disagreement = Some(format!("query `{}` rejected: {e}", ast.render()));
            return out;
        }
    };
    out.complete = result.complete;
    for s in &result.shards {
        out.fallbacks += u64::from(s.fallbacks);
        out.retries += u64::from(s.attempts.saturating_sub(1));
    }

    // Invariant 1: the lines are exactly the oracle's matches over the
    // blocks of the shards reported ok, in block order.
    let cluster_blocks = loggrep::split_blocks(&raw, block_bytes);
    let mut ok_blocks: Vec<usize> = result
        .shards
        .iter()
        .filter(|s| s.ok)
        .flat_map(|s| s.blocks.iter().copied())
        .collect();
    ok_blocks.sort_unstable();
    let expected: Vec<Vec<u8>> = ok_blocks
        .iter()
        .flat_map(|&b| {
            loggrep::engine::split_lines(cluster_blocks[b])
                .into_iter()
                .filter(|l| oracle::ast_matches(&ast, l))
                .map(|l| l.to_vec())
        })
        .collect();
    if result.lines != expected {
        out.disagreement = Some(format!(
            "query `{}`: got {} lines, oracle says {} over the ok shards",
            ast.render(),
            result.lines.len(),
            expected.len()
        ));
        return out;
    }

    // Invariant 2: with no drops, a shard with a reachable replica must
    // answer — and if every shard does, the result is complete and equals
    // the full oracle.
    if drop_rate == 0.0 || out.ingest_aborted {
        for s in &result.shards {
            let reachable = s.replicas.iter().any(|&r| c.net().reachable(r));
            if reachable && !s.ok {
                out.disagreement = Some(format!(
                    "shard {} has a reachable replica but failed: {:?}",
                    s.shard, s.error
                ));
                return out;
            }
        }
        let every_shard_covered = result
            .shards
            .iter()
            .all(|s| s.replicas.iter().any(|&r| c.net().reachable(r)));
        if every_shard_covered {
            let full: Vec<Vec<u8>> = lines
                .iter()
                .filter(|l| oracle::ast_matches(&ast, l))
                .cloned()
                .collect();
            if !result.complete || result.lines != full {
                out.disagreement = Some(format!(
                    "covered cluster not exact: complete={} got {} want {}",
                    result.complete,
                    result.lines.len(),
                    full.len()
                ));
                return out;
            }
        }
    }

    out
}

/// Aggregated stats over a cluster-faults run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Cases executed.
    pub cases: u64,
    /// Total fault knobs injected.
    pub faults_injected: u64,
    /// Total replica fallbacks taken.
    pub fallbacks: u64,
    /// Total retry attempts beyond the first.
    pub retries: u64,
    /// Cases whose ingest was aborted (and rolled back) by the schedule.
    pub ingests_aborted: u64,
    /// Cases that returned a partial result.
    pub partials: u64,
    /// Broken invariants: `(case index, description)`.
    pub disagreements: Vec<(u64, String)>,
}

impl Summary {
    /// Folds one case outcome into the totals.
    pub fn absorb(&mut self, case: u64, outcome: &CaseOutcome) {
        self.cases += 1;
        self.faults_injected += outcome.faults_injected;
        self.fallbacks += outcome.fallbacks;
        self.retries += outcome.retries;
        self.ingests_aborted += u64::from(outcome.ingest_aborted);
        self.partials += u64::from(!outcome.complete);
        if let Some(d) = &outcome.disagreement {
            self.disagreements.push((case, d.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let a = run_case(7, 3);
        let b = run_case(7, 3);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.fallbacks, b.fallbacks);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.complete, b.complete);
        assert_eq!(a.disagreement, b.disagreement);
    }

    #[test]
    fn a_seeded_sweep_has_zero_disagreements() {
        let mut summary = Summary::default();
        for case in 0..8 {
            summary.absorb(case, &run_case(11, case));
        }
        assert_eq!(summary.cases, 8);
        assert!(
            summary.disagreements.is_empty(),
            "disagreements: {:?}",
            summary.disagreements
        );
        assert!(summary.faults_injected > 0, "the sweep must inject faults");
    }
}
