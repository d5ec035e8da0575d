//! Implementation of the `loggrep` command-line tool.
//!
//! Subcommands:
//!
//! * `compress <input.log> <output.lgb>` — compress a log file into a
//!   CapsuleBox (64 MiB blocks by default, compressed in parallel);
//! * `query <archive.lgb> <command>` — run a grep-like query;
//! * `query <archive.lgb> [filter] --agg <spec>` — run an aggregate
//!   (`count`, `count-by-template`, `top-K t<T>.v<V>`, `histogram <bucket>`)
//!   pushed down to the cheapest storage layer, optionally restricted to
//!   the lines a filter command matches;
//! * `stat <archive.lgb>` (alias `stats`) — print archive statistics;
//! * `gen <log-name> <bytes> [seed]` — emit a synthetic workload log;
//! * `trace <archive.lgb> <command>` — run a query with the trace journal
//!   on, emitting a Chrome trace-event file for Perfetto /
//!   `chrome://tracing` and/or flamegraph-collapsed stacks;
//! * `serve-metrics <addr>` — serve `/metrics` (Prometheus text),
//!   `/healthz`, and `/trace/last.json` over plain HTTP;
//! * `cluster <log-name> <bytes> <command> [seed]` — fault-tolerance demo:
//!   ingest a synthetic log into a replicated in-process cluster over a
//!   seeded simulated network, then run the query healthy, with a crashed
//!   node (replicas cover it), and with a partition (partial results).
//!
//! Global flags, accepted anywhere on the command line:
//!
//! * `--trace` — enable the [`telemetry`] registry for this run and print a
//!   per-stage breakdown (span tree + counters) to stderr afterwards; a
//!   traced `query` also prints the predicted-vs-actual plan drift report;
//! * `--trace-out FILE` — additionally record the trace journal and write
//!   it as Chrome trace-event JSON to `FILE` when the run finishes
//!   (implies telemetry on, like `--trace`);
//! * `--json` — machine-readable output: `stat --json` prints the archive
//!   statistics as JSON on stdout, and `--trace --json` switches the trace
//!   footer to the telemetry JSON export.
//!
//! Argument parsing is hand-rolled (no CLI dependency); see [`run`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use loggrep::{AggResult, AggSpec, Archive, CapsuleBox, LogGrep, LogGrepConfig, PlanDrift};
use std::io::Write;

/// Multi-block container magic (a `.lgb` file is a sequence of
/// length-prefixed CapsuleBoxes).
const FILE_MAGIC: &[u8; 8] = b"LGBFILE1";

/// Block size used by `compress` (the paper's 64 MB log blocks).
pub const BLOCK_SIZE: usize = 64 << 20;

/// Global flags accepted anywhere on the command line.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// `--trace`: enable telemetry and print a per-stage trace footer.
    pub trace: bool,
    /// `--json`: machine-readable output where the subcommand supports it.
    pub json: bool,
    /// `--trace-out FILE`: record the trace journal and write it as Chrome
    /// trace-event JSON to `FILE` after the run (implies telemetry on).
    pub trace_out: Option<String>,
}

/// Strips the global flags out of `args`, returning the positional rest.
fn parse_global_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--trace" => flags.trace = true,
            "--json" => flags.json = true,
            "--trace-out" => {
                let file = iter
                    .next()
                    .ok_or_else(|| "--trace-out needs a file argument".to_string())?;
                flags.trace_out = Some(file.clone());
            }
            other => match other.strip_prefix("--trace-out=") {
                Some(file) if !file.is_empty() => flags.trace_out = Some(file.to_string()),
                Some(_) => return Err("--trace-out needs a file argument".to_string()),
                None => rest.push(a.clone()),
            },
        }
    }
    Ok((rest, flags))
}

/// Runs the CLI with the given arguments (excluding `argv[0]`).
///
/// Returns the process exit code; errors are printed to stderr.
pub fn run(args: &[String]) -> i32 {
    let (args, flags) = match parse_global_flags(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("loggrep: {e}");
            return 2;
        }
    };
    if flags.trace || flags.trace_out.is_some() {
        telemetry::set_enabled(true);
        telemetry::reset();
    }
    if flags.trace_out.is_some() {
        telemetry::set_journal_enabled(true);
        telemetry::clear_journal();
    }
    let code = match dispatch(&args, &flags) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("loggrep: {e}");
            2
        }
    };
    if let Some(path) = &flags.trace_out {
        let events = telemetry::journal_events();
        let json = telemetry::export_chrome_trace(&events);
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("trace journal: {} event(s) -> {path}", events.len()),
            Err(e) => {
                eprintln!("loggrep: write {path}: {e}");
                return 2;
            }
        }
    }
    if flags.trace {
        let snap = telemetry::snapshot();
        if flags.json {
            eprint!("{}", telemetry::export_json(&snap));
        } else {
            eprintln!("-- trace --");
            eprint!("{}", telemetry::export_trace_text(&snap));
        }
    }
    code
}

fn dispatch(args: &[String], flags: &Flags) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        print!("{}", usage());
        return Ok(());
    };
    match cmd.as_str() {
        "compress" => {
            let [input, output] = two(rest, "compress <input.log> <output.lgb>")?;
            compress_file(input, output)
        }
        "query" => {
            const USAGE: &str = "query <archive.lgb> [filter] [--agg <spec>]";
            let (positional, agg) = split_agg_flag(rest)?;
            match (&positional[..], agg) {
                ([archive, command], None) => query_file(archive, command, flags),
                ([archive], Some(spec)) => query_agg_file(archive, None, spec, flags),
                ([archive, filter], Some(spec)) => {
                    query_agg_file(archive, Some(filter), spec, flags)
                }
                _ => Err(format!("expected arguments: {USAGE}")),
            }
        }
        "stat" | "stats" => {
            let archive = one(rest, "stat <archive.lgb>")?;
            stat_file(archive, flags.json)
        }
        "explain" => {
            let [archive, command] = two(rest, "explain <archive.lgb> <command>")?;
            explain_file(archive, command)
        }
        "trace" => trace_cmd(rest),
        "serve-metrics" => serve_metrics_cmd(rest),
        "cluster" => cluster_demo(rest),
        "gen" => gen_log(rest),
        "help" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    "loggrep — compress cloud logs and grep them without full decompression\n\
     \n\
     USAGE:\n\
     \x20 loggrep compress <input.log> <output.lgb>   compress a log file\n\
     \x20 loggrep query <archive.lgb> <command>       run a grep-like query\n\
     \x20 loggrep query <archive.lgb> [filter] --agg <spec>\n\
     \x20                                             run an aggregate (count, count-by-template,\n\
     \x20                                             top-K t<T>.v<V>, histogram <bucket>) pushed\n\
     \x20                                             to the cheapest storage layer\n\
     \x20 loggrep stat <archive.lgb>                  print archive statistics\n\
     \x20                                             (alias: stats)\n\
     \x20 loggrep explain <archive.lgb> <command>     show the query plan\n\
     \x20 loggrep gen <log-name> <bytes> [seed]       print a synthetic log\n\
     \x20 loggrep trace <archive.lgb> <command> [--out FILE] [--collapsed FILE]\n\
     \x20                                             run a query with the trace journal on;\n\
     \x20                                             emit Chrome trace-event JSON (Perfetto /\n\
     \x20                                             chrome://tracing) and collapsed stacks\n\
     \x20 loggrep serve-metrics <addr> [seconds]      serve /metrics (Prometheus), /healthz,\n\
     \x20                                             and /trace/last.json over HTTP\n\
     \x20 loggrep cluster <log-name> <bytes> <command> [seed]\n\
     \x20                                             fault-tolerance demo: query a replicated\n\
     \x20                                             in-process cluster healthy, with a node\n\
     \x20                                             crashed, and with a partition (partial\n\
     \x20                                             results)\n\
     \n\
     GLOBAL FLAGS:\n\
     \x20 --trace          print a per-stage timing/counter breakdown to stderr;\n\
     \x20                  a traced query also reports plan-vs-execution drift\n\
     \x20 --trace-out FILE record the trace journal; write Chrome trace JSON to FILE\n\
     \x20 --json           machine-readable output (stat --json; --trace --json)\n\
     \n\
     QUERY LANGUAGE:\n\
     \x20 search strings joined by and / or / not (left-associative), e.g.\n\
     \x20   loggrep query app.lgb 'ERROR and dst:11.8.* not state:503'\n\
     \x20 a `*` wildcard matches within a single token only.\n\
     \n\
     AGGREGATES (`--agg`):\n\
     \x20 count                count matching lines\n\
     \x20 count-by-template    lines per static template (never decompresses)\n\
     \x20 top-3 t0.v2          most frequent values of template 0, slot 2\n\
     \x20 histogram 1000       matching lines per 1000-line bucket, e.g.\n\
     \x20   loggrep query app.lgb 'ERROR' --agg count-by-template --json\n"
        .to_string()
}

fn one<'a>(args: &'a [String], usage: &str) -> Result<&'a str, String> {
    match args {
        [a] => Ok(a),
        _ => Err(format!("expected arguments: {usage}")),
    }
}

fn two<'a>(args: &'a [String], usage: &str) -> Result<[&'a str; 2], String> {
    match args {
        [a, b] => Ok([a, b]),
        _ => Err(format!("expected arguments: {usage}")),
    }
}

/// Splits `--agg <spec>` (or `--agg=<spec>`) out of a `query` argument
/// list, returning the remaining positionals and the aggregate spec.
fn split_agg_flag(args: &[String]) -> Result<(Vec<&str>, Option<&str>), String> {
    let mut positional = Vec::new();
    let mut agg = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--agg" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--agg needs an aggregate spec".to_string())?;
                agg = Some(spec.as_str());
            }
            other => match other.strip_prefix("--agg=") {
                Some(spec) if !spec.is_empty() => agg = Some(spec),
                Some(_) => return Err("--agg needs an aggregate spec".to_string()),
                None => positional.push(other),
            },
        }
    }
    Ok((positional, agg))
}

/// Compresses `input` into a multi-block `.lgb` archive, one CapsuleBox per
/// 64 MiB of raw log, blocks compressed in parallel on the worker pool.
///
/// A failed block aborts the whole run with that block's error, and the
/// archive reaches `output` by [`write_atomic`]: whatever `output` held
/// before is either fully replaced or untouched.
pub fn compress_file(input: &str, output: &str) -> Result<(), String> {
    let raw = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let blocks = file_blocks(&raw);

    // One pool level is enough: with several blocks, parallelize across
    // blocks and keep each engine serial; a single block instead keeps the
    // pool for the engine's internal capsule/extract fan-out.
    let engine_threads = if blocks.len() > 1 { 1 } else { 0 };
    let engine = LogGrep::new(LogGrepConfig {
        threads: engine_threads,
        ..LogGrepConfig::default()
    });
    let block_pool = pool::Pool::from_env();
    let boxes = block_pool
        .try_map(&blocks, |_, block| engine.compress(block).map(|b| b.to_bytes()))
        .map_err(|e| e.to_string())?;

    let mut out = Vec::new();
    out.extend_from_slice(FILE_MAGIC);
    for b in &boxes {
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        out.extend_from_slice(b);
    }
    write_atomic(output, &out).map_err(|e| format!("write {output}: {e}"))?;
    println!(
        "compressed {} -> {} ({:.2}x, {} block(s))",
        human(raw.len()),
        human(out.len()),
        raw.len() as f64 / out.len().max(1) as f64,
        blocks.len()
    );
    Ok(())
}

/// Writes `bytes` to `path` all or nothing: to `<path>.tmp`, synced, then
/// renamed over `path`, so neither a failure nor a crash leaves a
/// half-written archive under the final name.
fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // The rename is durable once the directory entry is.
    let dir = std::path::Path::new(path)
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// The blocks of a `.lgb` file: ~[`BLOCK_SIZE`] each on line boundaries; an
/// empty input is stored as one empty block.
fn file_blocks(raw: &[u8]) -> Vec<&[u8]> {
    let mut blocks = loggrep::split_blocks(raw, BLOCK_SIZE);
    if blocks.is_empty() {
        blocks.push(&[]);
    }
    blocks
}

/// Opens a `.lgb` file into its per-block archives.
pub fn open_file(path: &str) -> Result<Vec<Archive>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    open_bytes(&bytes)
}

fn open_bytes(bytes: &[u8]) -> Result<Vec<Archive>, String> {
    if bytes.get(..8) != Some(FILE_MAGIC.as_slice()) {
        return Err("not a loggrep archive (bad magic)".to_string());
    }
    let mut archives = Vec::new();
    let mut rest = bytes.get(8..).unwrap_or_default();
    while !rest.is_empty() {
        let Some((header, tail)) = rest.split_first_chunk::<8>() else {
            return Err("truncated block header".to_string());
        };
        let len = usize::try_from(u64::from_le_bytes(*header))
            .map_err(|_| "block length overflow".to_string())?;
        let Some(block) = tail.get(..len) else {
            return Err("truncated block".to_string());
        };
        archives.push(Archive::from_bytes(block).map_err(|e| e.to_string())?);
        rest = tail.get(len..).unwrap_or_default();
    }
    Ok(archives)
}

fn query_file(path: &str, command: &str, flags: &Flags) -> Result<(), String> {
    let archives = open_file(path)?;
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut total = 0usize;
    let mut drift = PlanDrift::default();
    let mut plan_elapsed = std::time::Duration::ZERO;
    let mut elapsed = std::time::Duration::ZERO;
    for archive in &archives {
        let result = archive.query(command).map_err(|e| e.to_string())?;
        for line in &result.lines {
            w.write_all(line).and_then(|_| w.write_all(b"\n"))
                .map_err(|e| e.to_string())?;
        }
        total += result.lines.len();
        if flags.trace {
            // Satellite check: how far did the executed query drift from
            // what the planner predicted without decompressing anything?
            let explanation = archive.explain(command).map_err(|e| e.to_string())?;
            drift.absorb(&explanation.drift(&result.stats));
            plan_elapsed += result.stats.plan_elapsed;
            elapsed += result.stats.elapsed;
        }
    }
    // Under `--trace --json` stderr carries the telemetry JSON alone, so a
    // consumer can parse it without filtering out the human summary.
    if flags.trace && flags.json {
        return Ok(());
    }
    eprintln!("({total} matching line(s))");
    if flags.trace {
        eprintln!(
            "plan {:.3} ms / execute {:.3} ms",
            plan_elapsed.as_secs_f64() * 1e3,
            elapsed.saturating_sub(plan_elapsed).as_secs_f64() * 1e3,
        );
        eprint!("{drift}");
    }
    Ok(())
}

/// `query <archive.lgb> [filter] --agg <spec>`: runs an aggregate across
/// all blocks, merging per-block distributions (global line numbers via
/// per-block offsets) so a multi-block archive answers exactly like a
/// single-block one.
fn query_agg_file(
    path: &str,
    filter: Option<&str>,
    spec_text: &str,
    flags: &Flags,
) -> Result<(), String> {
    let spec = AggSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let archives = open_file(path)?;
    let mut merged = AggResult::empty(&spec);
    let mut offset = 0u64;
    let mut layer: Option<loggrep::AggLayer> = None;
    let mut decompressed = 0usize;
    let mut consistent = true;
    for archive in &archives {
        let r = archive
            .query_agg_at(filter, &spec, offset)
            .map_err(|e| e.to_string())?;
        merged.merge(&r.agg).map_err(|e| e.to_string())?;
        offset += u64::from(archive.total_lines());
        layer = layer.max(r.stats.agg_layer);
        decompressed += r.stats.capsules_decompressed;
        if flags.trace {
            let predicted = archive
                .explain_agg(filter, &spec)
                .map_err(|e| e.to_string())?;
            consistent &=
                loggrep::AggDrift::new(predicted, filter.is_some(), &r.stats).consistent();
        }
    }
    if flags.json {
        println!("{}", merged.to_json());
        return Ok(());
    }
    print!("{merged}");
    eprintln!(
        "(answered at the {} layer, {decompressed} capsule(s) decompressed)",
        layer.map_or("metadata", |l| l.name()),
    );
    if flags.trace {
        eprintln!(
            "aggregate drift: {}",
            if consistent { "within plan bounds" } else { "EXCEEDED plan bounds" }
        );
    }
    Ok(())
}

/// `trace <archive.lgb> <command> [--out FILE] [--collapsed FILE]`: runs
/// the query with the trace journal on and writes the Chrome trace-event
/// JSON to `--out` (stdout when omitted). `--collapsed` additionally writes
/// flamegraph-collapsed stacks built from the journal's exact timings.
fn trace_cmd(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "trace <archive.lgb> <command> [--out FILE] [--collapsed FILE]";
    let mut positional: Vec<&str> = Vec::new();
    let mut out_file: Option<&str> = None;
    let mut collapsed_file: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--out" => {
                out_file = Some(iter.next().ok_or("--out needs a file argument")?);
            }
            "--collapsed" => {
                collapsed_file = Some(iter.next().ok_or("--collapsed needs a file argument")?);
            }
            other => positional.push(other),
        }
    }
    let [archive_path, command] = positional[..] else {
        return Err(format!("expected arguments: {USAGE}"));
    };

    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::set_journal_enabled(true);
    telemetry::clear_journal();
    let archives = open_file(archive_path)?;
    let mut total = 0usize;
    for archive in &archives {
        total = total.saturating_add(
            archive.query(command).map_err(|e| e.to_string())?.lines.len(),
        );
    }

    let events = telemetry::journal_events();
    let chrome = telemetry::export_chrome_trace(&events);
    match out_file {
        Some(path) => {
            std::fs::write(path, chrome).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("trace journal: {} event(s) -> {path}", events.len());
        }
        None => print!("{chrome}"),
    }
    if let Some(path) = collapsed_file {
        std::fs::write(path, telemetry::export_collapsed(&events))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("collapsed stacks -> {path}");
    }
    eprintln!("({total} matching line(s))");
    Ok(())
}

/// `serve-metrics <addr> [seconds]`: binds the std-only HTTP exporter and
/// serves `/metrics`, `/healthz`, and `/trace/last.json` until killed (or
/// for `seconds`, mainly for scripted smoke tests). Telemetry and the trace
/// journal are enabled so the endpoints have live data.
fn serve_metrics_cmd(args: &[String]) -> Result<(), String> {
    let (addr, secs) = match args {
        [addr] => (addr.as_str(), None),
        [addr, secs] => (
            addr.as_str(),
            Some(
                secs.parse::<u64>()
                    .map_err(|_| format!("bad duration `{secs}`"))?,
            ),
        ),
        _ => return Err("expected arguments: serve-metrics <addr> [seconds]".to_string()),
    };
    telemetry::set_enabled(true);
    telemetry::set_journal_enabled(true);
    let server = telemetry::MetricsServer::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving /metrics /healthz /trace/last.json on http://{}",
        server.local_addr()
    );
    match secs {
        Some(s) => std::thread::sleep(std::time::Duration::from_secs(s)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

fn explain_file(path: &str, command: &str) -> Result<(), String> {
    for (i, archive) in open_file(path)?.iter().enumerate() {
        println!("-- block {i} --");
        print!("{}", archive.explain(command).map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn stat_file(path: &str, json: bool) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    print!("{}", stat_report(&bytes, json)?);
    Ok(())
}

/// Renders archive statistics from serialized `.lgb` bytes, as aligned text
/// or a JSON object.
fn stat_report(bytes: &[u8], json: bool) -> Result<String, String> {
    let archives = open_bytes(bytes)?;
    let mut lines = 0u64;
    let mut raw = 0u64;
    let mut groups = 0usize;
    let mut capsules = 0usize;
    // Pow2-bucket histogram over compressed capsule sizes, so stat reports
    // the same p50/p95/p99 summaries the live `/metrics` endpoint serves.
    let sizes = telemetry::Histogram::new();
    for a in &archives {
        let b = a.capsule_box();
        lines += b.total_lines as u64;
        raw += b.raw_size;
        groups += b.groups.len();
        capsules += b.capsules.len();
        for c in &b.capsules {
            sizes.record(c.clen);
        }
    }
    let sizes = sizes.snapshot();
    let ratio = raw as f64 / bytes.len().max(1) as f64;
    if json {
        return Ok(format!(
            "{{\n  \"blocks\": {},\n  \"lines\": {lines},\n  \"raw_bytes\": {raw},\n  \
             \"stored_bytes\": {},\n  \"ratio\": {ratio:.4},\n  \"groups\": {groups},\n  \
             \"capsules\": {capsules},\n  \"capsule_bytes\": {{\"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}}\n}}\n",
            archives.len(),
            bytes.len(),
            sizes.quantile(0.5),
            sizes.quantile(0.95),
            sizes.quantile(0.99),
            sizes.max,
        ));
    }
    let mut out = String::new();
    out.push_str(&format!("blocks:        {}\n", archives.len()));
    out.push_str(&format!("lines:         {lines}\n"));
    out.push_str(&format!("raw size:      {}\n", human(raw as usize)));
    out.push_str(&format!("stored size:   {}\n", human(bytes.len())));
    out.push_str(&format!("ratio:         {ratio:.2}x\n"));
    out.push_str(&format!("groups:        {groups}\n"));
    out.push_str(&format!("capsules:      {capsules}\n"));
    out.push_str(&format!(
        "capsule bytes: p50={} p95={} p99={} max={}\n",
        sizes.quantile(0.5),
        sizes.quantile(0.95),
        sizes.quantile(0.99),
        sizes.max,
    ));
    Ok(out)
}

/// `cluster <log-name> <bytes> <command> [seed]`: the fault-tolerance
/// demo. Ingests a synthetic log into a 3-node cluster with replication 2
/// over a seeded simulated network, then runs the query three ways:
/// healthy, with one node crashed (replica fallback keeps the answer
/// exact), and with a second node partitioned away (partial results with
/// per-shard status). Ends with the fault-path telemetry counters.
fn cluster_demo(args: &[String]) -> Result<(), String> {
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
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<String> = workloads::all_logs().iter().map(|s| s.name.clone()).collect();
        format!("unknown log `{name}`; available: {}", names.join(", "))
    })?;
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
        human(raw.len()),
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

fn gen_log(args: &[String]) -> Result<(), String> {
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
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<String> = workloads::all_logs().iter().map(|s| s.name.clone()).collect();
        format!("unknown log `{name}`; available: {}", names.join(", "))
    })?;
    let raw = spec.generate(seed, size);
    std::io::stdout()
        .write_all(&raw)
        .map_err(|e| e.to_string())
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// A multi-block queryable archive handle (library form of `query`).
pub struct MultiArchive {
    archives: Vec<Archive>,
}

impl MultiArchive {
    /// Compresses raw logs in memory into a multi-block archive.
    pub fn compress(raw: &[u8], config: LogGrepConfig) -> Result<Self, String> {
        let engine = LogGrep::new(config);
        let archives = file_blocks(raw)
            .into_iter()
            .map(|b| engine.compress(b).map(|boxed| engine.open(boxed)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Self { archives })
    }

    /// Runs a query across all blocks, concatenating results in block order.
    pub fn query(&self, command: &str) -> Result<Vec<Vec<u8>>, String> {
        let mut out = Vec::new();
        for a in &self.archives {
            out.extend(a.query(command).map_err(|e| e.to_string())?.lines);
        }
        Ok(out)
    }

    /// Runs an aggregate across all blocks, merging per-block results with
    /// cumulative line-number offsets (so `histogram` buckets are global).
    pub fn query_agg(&self, filter: Option<&str>, spec: &AggSpec) -> Result<AggResult, String> {
        let mut merged = AggResult::empty(spec);
        let mut offset = 0u64;
        for a in &self.archives {
            let r = a
                .query_agg_at(filter, spec, offset)
                .map_err(|e| e.to_string())?;
            merged.merge(&r.agg).map_err(|e| e.to_string())?;
            offset += u64::from(a.total_lines());
        }
        Ok(merged)
    }

    /// The per-block archives.
    pub fn blocks(&self) -> &[Archive] {
        &self.archives
    }
}

/// Serializes a single CapsuleBox into the `.lgb` container format (used by
/// examples that keep everything in memory).
pub fn single_block_file(boxed: &CapsuleBox) -> Vec<u8> {
    let body = boxed.to_bytes();
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(FILE_MAGIC);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_one_empty_block() {
        assert_eq!(file_blocks(b""), vec![&b""[..]]);
        assert_eq!(file_blocks(b"a\nb\n"), vec![&b"a\nb\n"[..]]);
    }

    #[test]
    fn compress_file_replaces_output_all_or_nothing() {
        let dir = std::env::temp_dir().join(format!("loggrep-cli-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (input, output, tmp) = (path("in.log"), path("out.lgb"), path("out.lgb.tmp"));
        std::fs::write(&output, b"the previous archive").unwrap();

        // A NUL byte fails the run: the old output survives byte for byte.
        std::fs::write(&input, b"fine line\nbad \0 line\n").unwrap();
        assert!(compress_file(&input, &output).is_err());
        assert_eq!(std::fs::read(&output).unwrap(), b"the previous archive");
        assert!(!std::path::Path::new(&tmp).exists());

        std::fs::write(&input, b"fine line\nanother line\n").unwrap();
        compress_file(&input, &output).unwrap();
        assert_eq!(open_file(&output).unwrap().len(), 1);
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("loggrep-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.log");
        let output = dir.join("out.lgb");
        let spec = workloads::by_name("Log C").unwrap();
        std::fs::write(&input, spec.generate(5, 128 * 1024)).unwrap();

        compress_file(input.to_str().unwrap(), output.to_str().unwrap()).unwrap();
        let archives = open_file(output.to_str().unwrap()).unwrap();
        assert_eq!(archives.len(), 1);
        let hits = archives[0].query("finished batch").unwrap();
        assert!(!hits.lines.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_archive_in_memory() {
        let spec = workloads::by_name("Log H").unwrap();
        let raw = spec.generate(9, 64 * 1024);
        let multi = MultiArchive::compress(&raw, LogGrepConfig::default()).unwrap();
        assert_eq!(multi.blocks().len(), 1);
        let hits = multi.query("gc pause").unwrap();
        assert!(!hits.is_empty());
    }

    #[test]
    fn open_rejects_garbage() {
        assert!(open_bytes(b"definitely not an archive").is_err());
        assert!(open_bytes(b"").is_err());
        let mut bad = FILE_MAGIC.to_vec();
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(open_bytes(&bad).is_err());
    }

    #[test]
    fn usage_lists_subcommands() {
        let u = usage();
        for cmd in [
            "compress", "query", "stat", "stats", "explain", "gen", "trace", "serve-metrics",
            "cluster", "--trace", "--trace-out", "--json", "--agg", "count-by-template",
        ] {
            assert!(u.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn agg_flag_forms() {
        let to_args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = to_args(&["a.lgb", "--agg", "count"]);
        let (rest, agg) = split_agg_flag(&args).unwrap();
        assert_eq!(rest, vec!["a.lgb"]);
        assert_eq!(agg, Some("count"));
        let args = to_args(&["a.lgb", "ERROR", "--agg=top-3 t0.v1"]);
        let (rest, agg) = split_agg_flag(&args).unwrap();
        assert_eq!(rest, vec!["a.lgb", "ERROR"]);
        assert_eq!(agg, Some("top-3 t0.v1"));
        assert!(split_agg_flag(&to_args(&["a.lgb", "--agg"])).is_err());
        assert!(split_agg_flag(&to_args(&["a.lgb", "--agg="])).is_err());
    }

    #[test]
    fn multi_archive_aggregates_merge_across_blocks() {
        // Force several blocks by compressing block-sized slices manually:
        // compare against a single-block archive over the same bytes.
        let spec = workloads::by_name("Log C").unwrap();
        let raw = spec.generate(11, 96 * 1024);
        let single = MultiArchive::compress(&raw, LogGrepConfig::default()).unwrap();

        // Split on a line boundary near the middle and rebuild a two-block
        // container file, then aggregate through the file path.
        let mid = raw.len() / 2;
        let cut = mid + raw[mid..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let engine = LogGrep::new(LogGrepConfig::default());
        let mut file = FILE_MAGIC.to_vec();
        for part in [&raw[..cut], &raw[cut..]] {
            let body = engine.compress(part).unwrap().to_bytes();
            file.extend_from_slice(&(body.len() as u64).to_le_bytes());
            file.extend_from_slice(&body);
        }
        let blocks = open_bytes(&file).unwrap();
        assert_eq!(blocks.len(), 2);

        for (filter, agg) in [
            (None, "count"),
            (Some("finished batch"), "count"),
            (None, "count-by-template"),
            (None, "histogram 200"),
        ] {
            let spec = AggSpec::parse(agg).unwrap();
            let expected = single.query_agg(filter, &spec).unwrap();
            let mut merged = AggResult::empty(&spec);
            let mut offset = 0u64;
            for b in &blocks {
                let r = b.query_agg_at(filter, &spec, offset).unwrap();
                merged.merge(&r.agg).unwrap();
                offset += u64::from(b.total_lines());
            }
            assert_eq!(merged, expected, "`{agg}` filter {filter:?}");
        }
    }

    #[test]
    fn global_flags_strip_anywhere() {
        let args: Vec<String> = ["--trace", "stat", "a.lgb", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, flags) = parse_global_flags(&args).unwrap();
        assert!(flags.trace);
        assert!(flags.json);
        assert_eq!(rest, vec!["stat".to_string(), "a.lgb".to_string()]);
    }

    #[test]
    fn trace_out_flag_forms() {
        let to_args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (rest, flags) =
            parse_global_flags(&to_args(&["query", "--trace-out", "t.json", "a.lgb", "x"]))
                .unwrap();
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
        assert!(!flags.trace);
        assert_eq!(rest.len(), 3);
        let (_, flags) = parse_global_flags(&to_args(&["--trace-out=u.json", "help"])).unwrap();
        assert_eq!(flags.trace_out.as_deref(), Some("u.json"));
        assert!(parse_global_flags(&to_args(&["--trace-out"])).is_err());
        assert!(parse_global_flags(&to_args(&["--trace-out="])).is_err());
    }

    #[test]
    fn stat_report_text_and_json() {
        let spec = workloads::by_name("Log C").unwrap();
        let boxed = LogGrep::new(LogGrepConfig::default())
            .compress(&spec.generate(3, 64 * 1024))
            .unwrap();
        let bytes = single_block_file(&boxed);
        let text = stat_report(&bytes, false).unwrap();
        assert!(text.contains("blocks:        1"), "{text}");
        assert!(text.contains("ratio:"), "{text}");
        let json = stat_report(&bytes, true).unwrap();
        assert!(json.contains("\"blocks\": 1"), "{json}");
        for key in [
            "lines", "raw_bytes", "stored_bytes", "ratio", "groups", "capsules",
            "capsule_bytes", "p50", "p95", "p99",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
        assert!(text.contains("capsule bytes: p50="), "{text}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
