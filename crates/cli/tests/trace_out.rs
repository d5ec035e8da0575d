//! `--trace-out` end-to-end: a traced query must produce a valid Chrome
//! trace-event JSON file (the format Perfetto / `chrome://tracing` loads).
//! The `trace` subcommand's `--collapsed` stacks are the journal's exact
//! timings, and it takes no profiler flag.
//!
//! One test function: the telemetry registry and trace journal are
//! process-global, and this integration binary owns its process.

use std::collections::HashMap;
use telemetry::json::{self, Value};

#[test]
fn trace_out_produces_valid_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("loggrep-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.log");
    let archive = dir.join("a.lgb");
    let trace = dir.join("t.json");
    let spec = workloads::by_name("Log C").unwrap();
    std::fs::write(&input, spec.generate(7, 256 * 1024)).unwrap();

    let to_args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(
        cli::run(&to_args(&[
            "compress",
            input.to_str().unwrap(),
            archive.to_str().unwrap(),
        ])),
        0
    );
    assert_eq!(
        cli::run(&to_args(&[
            "query",
            "--trace-out",
            trace.to_str().unwrap(),
            archive.to_str().unwrap(),
            spec.queries[0].as_str(),
        ])),
        0
    );

    let src = std::fs::read_to_string(&trace).unwrap();
    let doc = json::parse(&src).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{src}"));
    assert_eq!(doc.str("displayTimeUnit"), Some("ns"));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no events recorded");

    // Schema: every event has name/ph/ts/pid/tid with the right types, and
    // duration events balance per thread (B/E nest like a call stack).
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut saw_query_span = false;
    let mut last_ts = f64::NEG_INFINITY;
    for ev in events {
        let name = ev.str("name").expect("event name").to_string();
        let ph = ev.str("ph").expect("event ph");
        let ts = ev.num("ts").expect("event ts (µs)");
        assert!(ts >= 0.0, "negative timestamp {ts}");
        assert!(ts >= last_ts, "events not time-ordered");
        last_ts = ts;
        assert_eq!(ev.num("pid"), Some(1.0));
        let tid = ev.num("tid").expect("event tid") as u64;
        match ph {
            "B" => {
                if name == "query" {
                    saw_query_span = true;
                }
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let top = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without B for `{name}` on tid {tid}"));
                assert_eq!(top, name, "mismatched B/E nesting on tid {tid}");
            }
            "C" => {
                ev.get("args")
                    .and_then(|a| a.num("value"))
                    .expect("counter event args.value");
            }
            "i" => {}
            other => panic!("unexpected phase `{other}`"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unbalanced spans on tid {tid}: {stack:?}");
    }
    assert!(saw_query_span, "no `query` span in trace");

    // `trace --collapsed` writes the journal's own collapsed stacks: exact
    // span totals with each path's direct children subtracted.
    let collapsed = dir.join("s.txt");
    assert_eq!(
        cli::run(&to_args(&[
            "trace",
            archive.to_str().unwrap(),
            spec.queries[0].as_str(),
            "--out",
            trace.to_str().unwrap(),
            "--collapsed",
            collapsed.to_str().unwrap(),
        ])),
        0
    );
    let events = telemetry::journal_events();
    let stacks = std::fs::read_to_string(&collapsed).unwrap();
    assert_eq!(stacks, telemetry::journal::export_collapsed(&events));
    let (mut query_total, mut children) = (0u64, 0u64);
    for e in events
        .iter()
        .filter(|e| e.kind == telemetry::EventKind::SpanEnd)
    {
        match e.name.strip_prefix("query") {
            Some("") => query_total += e.value,
            Some(rest) if rest.starts_with('/') && !rest[1..].contains('/') => children += e.value,
            _ => {}
        }
    }
    let query_self = query_total - children;
    assert!(
        stacks.lines().any(|l| l == format!("query {query_self}")),
        "no exact `query` self-time line ({query_self} ns) in:\n{stacks}"
    );

    // `--sample` is gone: it is rejected like any other unknown flag, as a
    // usage error before any work is done.
    let untouched = dir.join("never.json");
    for flag in ["--sample", "--no-such-flag"] {
        let code = cli::run(&to_args(&[
            "trace",
            archive.to_str().unwrap(),
            spec.queries[0].as_str(),
            "--out",
            untouched.to_str().unwrap(),
            flag,
            "97",
        ]));
        assert_eq!(code, 2, "`trace {flag} 97` must be a usage error");
    }
    assert!(!untouched.exists(), "a usage error must not run the query");

    std::fs::remove_dir_all(&dir).ok();
}
