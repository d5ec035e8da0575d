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
//!   `chrome://tracing` and/or flamegraph-collapsed stacks.
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

mod compress;
mod gen;
mod query;
mod stat;
mod trace;

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
            compress::compress_file(input, output)
        }
        "query" => {
            const USAGE: &str = "query <archive.lgb> [filter] [--agg <spec>]";
            let (positional, agg) = query::split_agg_flag(rest)?;
            match (&positional[..], agg) {
                ([archive, command], None) => query::query_file(archive, command, flags),
                ([archive], Some(spec)) => query::query_agg_file(archive, None, spec, flags),
                ([archive, filter], Some(spec)) => {
                    query::query_agg_file(archive, Some(filter), spec, flags)
                }
                _ => Err(format!("expected arguments: {USAGE}")),
            }
        }
        "stat" | "stats" => {
            let archive = one(rest, "stat <archive.lgb>")?;
            stat::stat_file(archive, flags.json)
        }
        "explain" => {
            let [archive, command] = two(rest, "explain <archive.lgb> <command>")?;
            stat::explain_file(archive, command)
        }
        "trace" => trace::trace_cmd(rest),
        "gen" => gen::gen_log(rest),
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

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `loggrep <verb>` line of the help text names a verb that
    /// dispatches: called bare, it asks for its arguments rather than
    /// being an unknown subcommand. Retired verbs are unknown.
    #[test]
    fn usage_verbs_dispatch() {
        let flags = Flags::default();
        let run = |verb: &str| dispatch(&[verb.to_string()], &flags);
        let u = usage();
        let verbs: Vec<&str> = u
            .lines()
            .filter_map(|l| l.strip_prefix("  loggrep "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(verbs.len() >= 6, "too few verbs parsed: {verbs:?}");
        for verb in verbs.into_iter().chain(["stats"]) {
            let err = run(verb).expect_err(verb);
            assert!(err.starts_with("expected arguments"), "{verb}: {err}");
        }
        assert_eq!(run("help"), Ok(()));
        for retired in ["cluster", "serve-metrics"] {
            let err = run(retired).expect_err(retired);
            assert!(err.starts_with("unknown subcommand"), "{retired}: {err}");
        }
        for flag in ["--trace", "--trace-out", "--json", "--agg"] {
            assert!(u.contains(flag), "usage misses {flag}");
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
}
