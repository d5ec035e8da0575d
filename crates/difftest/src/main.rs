//! The `difftest` driver: seeded differential fuzzing of the whole engine
//! matrix.
//!
//! ```text
//! difftest --seed N --cases M [--threads 1,4] [--no-baselines]
//!          [--corpus-dir DIR] [--bench-out FILE] [--budget-secs S]
//!          [--replay FILE] [--cluster-faults] [--aggregates]
//! ```
//!
//! `--cluster-faults` switches to the cluster-under-faults mode: each case
//! ingests a generated log into a replicated cluster over a seeded fault
//! schedule and checks the partial-results contract against the oracle
//! (see [`difftest::cluster_faults`]).
//!
//! `--aggregates` switches to the aggregate mode: each case runs one
//! aggregate verb (optionally under a filter) through every engine config
//! and compares the merged result against a naive raw-line oracle, plus the zero-decompression pushdown and cache
//! contracts (see [`difftest::aggregates`]).
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
    cluster_faults: bool,
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
        cluster_faults: false,
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
            "--cluster-faults" => {
                args.cluster_faults = true;
                i += 1;
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

/// The `--cluster-faults` mode: seeded fault schedules against the
/// replicated cluster, checked against the oracle's partial-results
/// contract. Stdout is deterministic for a given seed and case count.
fn run_cluster_faults(args: &Args) -> ! {
    let start = Instant::now();
    let mut summary = difftest::cluster_faults::Summary::default();
    let mut truncated = false;
    for case in 0..args.cases {
        if let Some(budget) = args.budget_secs {
            if start.elapsed().as_secs() >= budget {
                truncated = true;
                break;
            }
        }
        let outcome = difftest::cluster_faults::run_case(args.seed, case);
        if let Some(d) = &outcome.disagreement {
            println!("case {case}: FAIL {d}");
        }
        summary.absorb(case, &outcome);
    }
    if truncated {
        println!(
            "difftest: stopped at the wall-clock budget after {} of {} cases",
            summary.cases, args.cases
        );
    }
    println!(
        "difftest cluster-faults: seed={} cases={} faults_injected={} fallbacks={} retries={} ingests_aborted={} partials={} disagreements={}",
        args.seed,
        summary.cases,
        summary.faults_injected,
        summary.fallbacks,
        summary.retries,
        summary.ingests_aborted,
        summary.partials,
        summary.disagreements.len(),
    );
    if let Some(out) = &args.bench_out {
        let elapsed = start.elapsed().as_secs_f64();
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"bench\": \"cluster_faults\",\n  \"seed\": {},\n  \"cases\": {},\n  \"faults_injected\": {},\n  \"fallbacks\": {},\n  \"retries\": {},\n  \"ingests_aborted\": {},\n  \"partials\": {},\n  \"disagreements\": {},\n  \"elapsed_secs\": {elapsed:.3}\n}}\n",
            args.seed,
            summary.cases,
            summary.faults_injected,
            summary.fallbacks,
            summary.retries,
            summary.ingests_aborted,
            summary.partials,
            summary.disagreements.len(),
        );
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
        }
    }
    std::process::exit(if summary.disagreements.is_empty() { 0 } else { 1 });
}

/// The `--aggregates` mode: aggregate verbs over generated logs, every
/// engine config, against the naive raw-line oracle
/// (see [`difftest::aggregates`]). Stdout is deterministic for a given
/// seed and case count.
fn run_aggregates(args: &Args) -> ! {
    let start = Instant::now();
    let mut summary = difftest::aggregates::Summary::default();
    let mut truncated = false;
    for case in 0..args.cases {
        if let Some(budget) = args.budget_secs {
            if start.elapsed().as_secs() >= budget {
                truncated = true;
                break;
            }
        }
        let outcome = difftest::aggregates::run_case(args.seed, case, &args.threads);
        if let Some(d) = &outcome.disagreement {
            println!("case {case}: FAIL {d}");
        }
        summary.absorb(case, &outcome);
    }
    if truncated {
        println!(
            "difftest: stopped at the wall-clock budget after {} of {} cases",
            summary.cases, args.cases
        );
    }
    let join = |m: &std::collections::BTreeMap<&str, u64>| {
        m.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "difftest aggregates: seed={} cases={} engines={} threads={:?} filtered={} verbs[{}] layers[{}] decompression_checks={} disagreements={}",
        args.seed,
        summary.cases,
        difftest::harness::engine_matrix().len(),
        args.threads,
        summary.filtered,
        join(&summary.verbs),
        join(&summary.layers),
        summary.decompression_checks,
        summary.disagreements.len(),
    );
    if let Some(out) = &args.bench_out {
        let elapsed = start.elapsed().as_secs_f64();
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"bench\": \"aggregates\",\n  \"seed\": {},\n  \"cases\": {},\n  \"filtered\": {},\n  \"decompression_checks\": {},\n  \"disagreements\": {},\n  \"elapsed_secs\": {elapsed:.3},\n  \"cases_per_sec\": {:.2}\n}}\n",
            args.seed,
            summary.cases,
            summary.filtered,
            summary.decompression_checks,
            summary.disagreements.len(),
            if elapsed > 0.0 {
                summary.cases as f64 / elapsed
            } else {
                0.0
            },
        );
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
        }
    }
    std::process::exit(if summary.disagreements.is_empty() { 0 } else { 1 });
}

fn main() {
    let args = parse_args();
    if args.cluster_faults {
        run_cluster_faults(&args);
    }
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

    let start = Instant::now();
    let mut failures = 0u64;
    let mut cases_run = 0u64;
    let mut truncated = false;

    for i in 0..args.cases {
        if let Some(budget) = args.budget_secs {
            if start.elapsed().as_secs() >= budget {
                truncated = true;
                break;
            }
        }
        cases_run += 1;
        let mut rng = StdRng::seed_from_u64(case_seed(args.seed, i));
        let blocks = genlog::generate_blocks(&mut rng);
        let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
        let ast = QueryAst::generate(&mut rng, &lines);
        let case = Case::new(&ast, blocks);

        let Err(failure) = harness.check(&case) else {
            continue;
        };
        failures += 1;
        println!("case {i}: FAIL {failure}");

        let engine = failure.engine.clone();
        let shrunk = shrink::minimize(
            &case,
            |c| harness.check_filtered(c, Some(&engine)).is_err(),
            shrink::DEFAULT_BUDGET,
        );
        let mut named = shrunk;
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
    }

    if truncated {
        println!(
            "difftest: stopped at the wall-clock budget after {cases_run} of {} cases",
            args.cases
        );
    }
    println!(
        "difftest: seed={} cases={cases_run} engines={} threads={:?} baselines={} failures={failures}",
        args.seed,
        difftest::harness::engine_matrix().len(),
        args.threads,
        args.with_baselines,
    );

    if let Some(out) = &args.bench_out {
        let elapsed = start.elapsed().as_secs_f64();
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"bench\": \"difftest\",\n  \"seed\": {},\n  \"cases\": {cases_run},\n  \"failures\": {failures},\n  \"elapsed_secs\": {elapsed:.3},\n  \"cases_per_sec\": {:.2}\n}}\n",
            args.seed,
            if elapsed > 0.0 { cases_run as f64 / elapsed } else { 0.0 },
        );
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
