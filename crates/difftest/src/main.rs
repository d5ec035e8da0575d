//! The `difftest` driver: seeded differential fuzzing of the whole engine
//! matrix.
//!
//! ```text
//! difftest --seed N --cases M [--threads 1,4] [--no-baselines]
//!          [--corpus-dir DIR] [--bench-out FILE] [--budget-secs S]
//!          [--replay FILE] [--aggregates]
//! ```
//!
//! `--aggregates` switches to the aggregate mode: each case runs one
//! aggregate verb (optionally under a filter) through every engine config
//! and compares the merged result against a naive raw-line oracle, plus
//! the zero-decompression pushdown and cache contracts (see
//! [`difftest::aggregates`]).
//!
//! Stdout is deterministic for a given seed and case count (timings go
//! only to the `--bench-out` JSON), so two runs with the same arguments
//! are byte-identical — the reproducibility contract of the harness.
//! Failures are shrunk and written as replayable corpus files; the exit
//! code is non-zero when any case failed.

#![forbid(unsafe_code)]

use difftest::corpus::{self, Case};
use difftest::query::QueryAst;
use difftest::{case_seed, genlog, shrink, Harness};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    seed: u64,
    cases: u64,
    threads: Vec<usize>,
    with_baselines: bool,
    corpus_dir: PathBuf,
    bench_out: Option<String>,
    budget_secs: Option<u64>,
    replay: Option<String>,
    aggregates: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        cases: 100,
        threads: vec![1, 4],
        with_baselines: true,
        corpus_dir: corpus::default_dir(),
        bench_out: None,
        budget_secs: None,
        replay: None,
        aggregates: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("{} needs a value", argv[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match argv[i].as_str() {
            "--seed" => {
                args.seed = value(i).parse().expect("--seed takes a u64");
                i += 2;
            }
            "--cases" => {
                args.cases = value(i).parse().expect("--cases takes a u64");
                i += 2;
            }
            "--threads" => {
                args.threads = value(i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("thread count"))
                    .collect();
                i += 2;
            }
            "--no-baselines" => {
                args.with_baselines = false;
                i += 1;
            }
            "--corpus-dir" => {
                args.corpus_dir = PathBuf::from(value(i));
                i += 2;
            }
            "--bench-out" => {
                args.bench_out = Some(value(i));
                i += 2;
            }
            "--budget-secs" => {
                args.budget_secs = Some(value(i).parse().expect("--budget-secs takes seconds"));
                i += 2;
            }
            "--replay" => {
                args.replay = Some(value(i));
                i += 2;
            }
            "--aggregates" => {
                args.aggregates = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The one mode driver: the case loop with its `--budget-secs` cut-off, the
/// summary line, the `--bench-out` JSON and the exit code. `label` follows
/// `difftest` in the summary line, `bench` names the JSON, `failures` is
/// what both call a failed case. `run_case` runs one case into `state`,
/// prints its failure if any and returns whether it failed; `finish` gives
/// the middle of the summary line and the JSON fields between `cases` and
/// the failure count. Stdout is deterministic for a given seed and case
/// count.
fn drive<S>(
    args: &Args,
    [label, bench, failures]: [&str; 3],
    mut state: S,
    mut run_case: impl FnMut(&mut S, u64) -> bool,
    finish: impl FnOnce(&S) -> (String, Vec<(&'static str, u64)>),
) -> ! {
    let start = Instant::now();
    let (mut cases_run, mut failed) = (0u64, 0u64);
    for case in 0..args.cases {
        if args.budget_secs.is_some_and(|budget| start.elapsed().as_secs() >= budget) {
            println!(
                "difftest: stopped at the wall-clock budget after {cases_run} of {} cases",
                args.cases
            );
            break;
        }
        cases_run += 1;
        failed += u64::from(run_case(&mut state, case));
    }
    let (middle, fields) = finish(&state);
    println!(
        "difftest{label}: seed={} cases={cases_run} {middle} {failures}={failed}",
        args.seed
    );
    if let Some(out) = &args.bench_out {
        let elapsed = start.elapsed().as_secs_f64();
        let mut json = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {},\n  \"cases\": {cases_run}",
            args.seed
        );
        for (key, value) in fields.into_iter().chain([(failures, failed)]) {
            let _ = write!(json, ",\n  \"{key}\": {value}");
        }
        let _ = write!(json, ",\n  \"elapsed_secs\": {elapsed:.3}");
        let rate = if elapsed > 0.0 { cases_run as f64 / elapsed } else { 0.0 };
        let _ = write!(json, ",\n  \"cases_per_sec\": {rate:.2}");
        json.push_str("\n}\n");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
        }
    }
    std::process::exit(i32::from(failed > 0));
}

/// The `--aggregates` mode: aggregate verbs over generated logs, every
/// engine config, against the naive raw-line oracle
/// (see [`difftest::aggregates`]).
fn run_aggregates(args: &Args) -> ! {
    drive(
        args,
        [" aggregates", "aggregates", "disagreements"],
        difftest::aggregates::Summary::default(),
        |summary, case| {
            let outcome = difftest::aggregates::run_case(args.seed, case, &args.threads);
            summary.absorb(&outcome);
            if let Some(d) = &outcome.disagreement {
                println!("case {case}: FAIL {d}");
            }
            outcome.disagreement.is_some()
        },
        |s| {
            let join = |m: &std::collections::BTreeMap<&str, u64>| {
                m.iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let middle = format!(
                "engines={} threads={:?} filtered={} verbs[{}] layers[{}] decompression_checks={}",
                difftest::harness::engine_matrix().len(),
                args.threads,
                s.filtered,
                join(&s.verbs),
                join(&s.layers),
                s.decompression_checks,
            );
            let fields = vec![
                ("filtered", s.filtered),
                ("decompression_checks", s.decompression_checks),
            ];
            (middle, fields)
        },
    )
}

/// The default mode: generated logs and queries through the whole engine
/// matrix (and the baselines) against the naive oracle; failures are
/// shrunk and saved as replayable corpus files.
fn run_queries(args: &Args, harness: &Harness) -> ! {
    let run_case = |(): &mut (), i: u64| {
        let mut rng = StdRng::seed_from_u64(case_seed(args.seed, i));
        let blocks = genlog::generate_blocks(&mut rng);
        let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
        let ast = QueryAst::generate(&mut rng, &lines);
        let case = Case::new(&ast, blocks);

        let Err(failure) = harness.check(&case) else {
            return false;
        };
        println!("case {i}: FAIL {failure}");

        let engine = failure.engine.clone();
        let mut named = shrink::minimize(
            &case,
            |c| harness.check_filtered(c, Some(&engine)).is_err(),
            shrink::DEFAULT_BUDGET,
        );
        named.note = format!("seed {} case {i}: {failure}", args.seed);
        let name = format!("fail-s{}-c{i}", args.seed);
        match named.save(&args.corpus_dir, &name) {
            Ok(path) => println!(
                "case {i}: shrunk to {} lines, query `{}`; saved {}",
                named.total_lines(),
                named.query,
                path.display()
            ),
            Err(e) => println!("case {i}: could not save corpus file: {e}"),
        }
        true
    };
    drive(args, ["", "difftest", "failures"], (), run_case, |()| {
        let middle = format!(
            "engines={} threads={:?} baselines={}",
            difftest::harness::engine_matrix().len(),
            args.threads,
            args.with_baselines,
        );
        (middle, Vec::new())
    })
}

fn main() {
    let args = parse_args();
    if args.aggregates {
        run_aggregates(&args);
    }
    let harness = Harness {
        threads: args.threads.clone(),
        with_baselines: args.with_baselines,
        extra: Vec::new(),
    };

    if let Some(path) = &args.replay {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let case = Case::from_text(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        match harness.check(&case) {
            Ok(()) => println!("replay {path}: PASS"),
            Err(f) => {
                println!("replay {path}: FAIL {f}");
                std::process::exit(1);
            }
        }
        return;
    }
    run_queries(&args, &harness)
}
