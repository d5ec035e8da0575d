//! `cluster <log-name> <bytes> <command> [seed]` and `gen <log-name> <bytes>
//! [seed]`: the verbs that run on a synthetic workload log.

use crate::human;
use loggrep::LogGrepConfig;
use std::io::Write;

/// The workload generator named `name`, or an error listing the names.
fn log_spec(name: &str) -> Result<workloads::LogSpec, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<String> = workloads::all_logs().iter().map(|s| s.name.clone()).collect();
        format!("unknown log `{name}`; available: {}", names.join(", "))
    })
}

/// `cluster <log-name> <bytes> <command> [seed]`: the fault-tolerance
/// demo. Ingests a synthetic log into a 3-node cluster with replication 2
/// over a seeded simulated network, then runs the query three ways:
/// healthy, with one node crashed (replica fallback keeps the answer
/// exact), and with a second node partitioned away (partial results with
/// per-shard status). Ends with the fault-path telemetry counters.
pub(crate) fn cluster_demo(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "cluster <log-name> <bytes> <command> [seed]";
    let (name, size, command, seed) = match args {
        [n, s, c] => (n.as_str(), s, c.as_str(), 42u64),
        [n, s, c, seed] => (
            n.as_str(),
            s,
            c.as_str(),
            seed.parse().map_err(|_| "bad seed".to_string())?,
        ),
        _ => return Err(format!("expected arguments: {USAGE}")),
    };
    let size: usize = size.parse().map_err(|_| "bad byte count".to_string())?;
    let spec = log_spec(name)?;
    telemetry::set_enabled(true);

    let raw = spec.generate(seed, size);
    let mut c = cluster::Cluster::with_config(cluster::ClusterConfig {
        replication: 2,
        faults: cluster::FaultPlan::seeded(seed),
        ..cluster::ClusterConfig::for_nodes(3, LogGrepConfig::default())
    })
    .map_err(|e| e.to_string())?;
    // 256 KiB blocks: enough blocks that losing two of three nodes
    // visibly costs some shards (a {crashed, partitioned} replica pair).
    let blocks = c
        .ingest(&raw, 256 << 10)
        .map_err(|e| e.to_string())?;
    println!(
        "cluster: 3 nodes, replication 2, {} shard(s), {blocks} block(s) from {}",
        c.shard_map().shards(),
        human(raw.len() as u64),
    );

    let healthy = c.query(command).map_err(|e| e.to_string())?;
    println!(
        "healthy:          {} hit(s), complete={}",
        healthy.lines.len(),
        healthy.complete
    );

    c.crash_node(1);
    let degraded = c.query(command).map_err(|e| e.to_string())?;
    println!(
        "node 1 crashed:   {} hit(s), complete={} (replicas cover the crash)",
        degraded.lines.len(),
        degraded.complete
    );

    c.partition_node(2);
    let partial = c.query(command).map_err(|e| e.to_string())?;
    let failed: Vec<usize> = partial.failed_shards().map(|s| s.shard).collect();
    println!(
        "node 2 partitioned too: {} hit(s), complete={}, failed shard(s): {failed:?}",
        partial.lines.len(),
        partial.complete
    );

    c.restart_node(1);
    c.heal_node(2);
    let recovered = c.query(command).map_err(|e| e.to_string())?;
    println!(
        "recovered:        {} hit(s), complete={}",
        recovered.lines.len(),
        recovered.complete
    );

    let snap = telemetry::snapshot();
    println!(
        "counters: rpc_sent={} rpc_lost={} retries={} hedges={} read_fallback={} \
         timeouts={} shards_failed={} partial_results={}",
        snap.counter("cluster.rpc.sent"),
        snap.counter("cluster.rpc.lost"),
        snap.counter("cluster.retries"),
        snap.counter("cluster.hedges"),
        snap.counter("cluster.read_fallback"),
        snap.counter("cluster.timeouts"),
        snap.counter("cluster.shards_failed"),
        snap.counter("cluster.partial_results"),
    );
    Ok(())
}

pub(crate) fn gen_log(args: &[String]) -> Result<(), String> {
    let (name, size, seed) = match args {
        [n, s] => (n.as_str(), s, 42u64),
        [n, s, seed] => (
            n.as_str(),
            s,
            seed.parse().map_err(|_| "bad seed".to_string())?,
        ),
        _ => return Err("expected arguments: gen <log-name> <bytes> [seed]".to_string()),
    };
    let size: usize = size.parse().map_err(|_| "bad byte count".to_string())?;
    let spec = log_spec(name)?;
    let raw = spec.generate(seed, size);
    std::io::stdout()
        .write_all(&raw)
        .map_err(|e| e.to_string())
}
