//! `suite`: the repository's benchmark. One end-to-end run and one traced
//! per-layer run over four workloads; see README.md beside this package and
//! BENCHMARK.json at the repository root.
//!
//! ```text
//! suite --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one process
//! suite all     --seed <n> [--seconds <s>] [--quick]   every workload, tracing off
//! suite layers  --seed <n> [--seconds <s>] [--quick]   every workload, traced
//! suite repeat  --seed <n> [--seconds <s>]             both, twice, compared
//! ```
//!
//! A single run prints its report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

mod harness;
mod layers;
mod oracle;
mod trace;
mod util;
mod workload;

use harness::Settings;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Def, Scale, DEFS};

/// An end-to-end metric: what a user of the store sees. `bound` is the
/// share of the parent's median by which it may get worse; each is at least
/// three times the widest quartile spread seen over ten seeds on the
/// reference box (see README.md).
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ingest_mb_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "compression_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "open_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "query_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit, better)`, in the order the traced run
/// prints them. They have no bound.
const PER_LAYER: [(&str, &str, &str); 60] = [
    ("logparse.train_ms", "ms", "lower"),
    ("logparse.parse_mb_s", "MB/s", "higher"),
    ("logparse.templates", "count", "lower"),
    ("logparse.catch_all_rate", "share", "lower"),
    ("extract.ms", "ms", "lower"),
    ("extract.vectors_real", "count", "higher"),
    ("extract.vectors_nominal", "count", "higher"),
    ("extract.vectors_plain", "count", "lower"),
    ("extract.outlier_rate", "share", "lower"),
    ("capsule.build_ms", "ms", "lower"),
    ("capsule.count", "count", "lower"),
    ("capsule.payload_bytes", "bytes", "lower"),
    ("ingest.attribution_coverage", "share", "higher"),
    ("codec.store.compress_mb_s", "MB/s", "higher"),
    ("codec.store.decompress_mb_s", "MB/s", "higher"),
    ("codec.store.ratio", "ratio", "higher"),
    ("codec.store.byte_share", "share", "lower"),
    ("codec.fastlz.compress_mb_s", "MB/s", "higher"),
    ("codec.fastlz.decompress_mb_s", "MB/s", "higher"),
    ("codec.fastlz.ratio", "ratio", "higher"),
    ("codec.fastlz.byte_share", "share", "higher"),
    ("codec.deflate.compress_mb_s", "MB/s", "higher"),
    ("codec.deflate.decompress_mb_s", "MB/s", "higher"),
    ("codec.deflate.ratio", "ratio", "higher"),
    ("codec.deflate.byte_share", "share", "higher"),
    ("codec.lzma-lite.compress_mb_s", "MB/s", "higher"),
    ("codec.lzma-lite.decompress_mb_s", "MB/s", "higher"),
    ("codec.lzma-lite.ratio", "ratio", "higher"),
    ("codec.lzma-lite.byte_share", "share", "higher"),
    ("boxfile.serialize_ms", "ms", "lower"),
    ("boxfile.open_ms", "ms", "lower"),
    ("boxfile.metadata_bytes", "bytes", "lower"),
    ("boxfile.blob_bytes", "bytes", "lower"),
    ("plan.ms", "ms", "lower"),
    ("plan.dead_group_share", "share", "higher"),
    ("exec.capsules_decompressed_share", "share", "lower"),
    ("exec.bytes_decompressed", "bytes", "lower"),
    ("exec.stamp_rejections", "count", "higher"),
    ("exec.rows_verified_per_hit", "ratio", "lower"),
    ("exec.reconstruct_lines_per_s", "lines/s", "higher"),
    ("cache.hit_rate", "share", "higher"),
    ("cache.hit_ms", "ms", "lower"),
    ("strsearch.fixed_mb_s", "MB/s", "higher"),
    ("agg.count.ms", "ms", "lower"),
    ("agg.count-by-template.ms", "ms", "lower"),
    ("agg.histogram.ms", "ms", "lower"),
    ("agg.top-k.ms", "ms", "lower"),
    ("agg.layer_share.metadata", "share", "higher"),
    ("agg.layer_share.dictionary", "share", "higher"),
    ("agg.layer_share.capsule-scan", "share", "lower"),
    ("agg.layer_share.reconstruct", "share", "lower"),
    ("telemetry.enabled_overhead_pct", "%", "lower"),
    ("pool.speedup_ingest", "x", "higher"),
    ("pool.speedup_scan", "x", "higher"),
    ("pool.speedup_reconstruct", "x", "higher"),
    ("contention.ingest_slowdown", "x", "lower"),
    ("contention.query_slowdown", "x", "lower"),
    ("baselines.gzip_ratio", "ratio", "higher"),
    ("baselines.ratio_vs_gzip", "ratio", "higher"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Counts that must repeat exactly for a seed (`suite repeat` checks them).
const EXACT: [&str; 6] = [
    "compression_ratio",
    "cache.hit_rate",
    "exec.capsules_decompressed_share",
    "exec.bytes_decompressed",
    "exec.stamp_rejections",
    "exec.rows_verified_per_hit",
];

/// Measuring time of one run: `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 0.5;

#[derive(Debug, PartialEq)]
enum Command {
    Single { workload: String, trace: bool },
    All,
    Layers,
    Repeat,
}

#[derive(Debug)]
struct Args {
    command: Command,
    settings: Settings,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: suite (all|layers|repeat) --seed <n> [--seconds <s>] [--quick] [--out-dir <dir>]\n       suite --workload <needle|fullscan|cold_agg|tail_mixed> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut verb = None;
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, false, false);
    let mut out_dir = PathBuf::from(".suite_out");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "all" | "layers" | "repeat" if verb.is_none() => verb = Some(arg.as_str()),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let command = match (verb, workload) {
        (Some("all"), None) => Command::All,
        (Some("layers"), None) => Command::Layers,
        (Some("repeat"), None) => Command::Repeat,
        (None, Some(workload)) => Command::Single { workload, trace },
        _ => return Err("give one of all, layers, repeat, or --workload".to_string()),
    };
    let settings = Settings {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS }),
        scale: if quick { Scale::Quick } else { Scale::Full },
    };
    Ok(Args {
        command,
        settings,
        out_dir,
    })
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`, `metrics`.
fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    ))
}

fn label(settings: Settings) -> &'static str {
    match settings.scale {
        Scale::Full => "",
        Scale::Quick => " [--quick: tiny corpora, numbers NOT FOR COMPARISON]",
    }
}

/// One workload in this process. Returns the result line and whether every op was correct.
fn run_single(def: &Def, trace: bool, args: &Args) -> Result<(String, bool), String> {
    let settings = args.settings;
    eprintln!(
        "suite {} trace={} {}{}",
        def.name,
        u8::from(trace),
        util::provenance(settings.seed),
        label(settings)
    );
    eprintln!("  why: {}", def.why);
    let (attempted, failed, notes, metrics): (_, _, _, Vec<(&str, f64, &str)>) = if trace {
        let report = layers::run(def, settings, &args.out_dir)?;
        eprintln!(
            "  per-layer self time (span minus children), spans in {}:",
            report.trace_file.display()
        );
        for (name, count, secs) in &report.self_times {
            eprintln!("    {name:<28} {count:>7} spans {:>10.3} ms", secs * 1e3);
        }
        // The traced run names its metrics; the table gives their units.
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for ((name, value), (listed, unit, _)) in report.metrics.iter().zip(PER_LAYER) {
            if name != listed {
                return Err(format!(
                    "the traced run reported {name} where {listed} is listed"
                ));
            }
            eprintln!("  {listed:<36} {value:>16.6} {unit}");
            metrics.push((listed, *value, unit));
        }
        (report.attempted, report.failed, report.notes, metrics)
    } else {
        let e = harness::run(def, settings)?;
        let samples = [
            format!("{} ingest samples", e.ingest_reps),
            "stored bytes, exact".to_string(),
            format!("{} samples", e.open_samples),
            format!("{} ops", e.query_samples),
            format!("{} ops", e.query_samples),
            "VmHWM before verification".to_string(),
            "median of 3 set-ups".to_string(),
        ];
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(e.values())
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();
        for ((name, value, unit), n) in metrics.iter().zip(&samples) {
            eprintln!("  {name:<20} {value:>14.4} {unit:<6} ({n})");
        }
        eprintln!(
            "  times are at the reference CPU speed: measured wall times were multiplied by {:.3} (median)",
            e.cpu_scale
        );
        eprintln!(
            "  {:<20} {:>14.6} share  ({} failed of {} attempted; oracle verification took {:.2} s, untimed)",
            "fail_share",
            e.fail_share(),
            e.failed,
            e.attempted,
            e.verify_s
        );
        (e.attempted, e.failed, e.notes, metrics)
    };
    for note in &notes {
        eprintln!("  FAILED: {note}");
    }
    Ok((result_json(attempted, failed, &metrics)?, failed == 0))
}

/// What a child run reported.
#[derive(Debug)]
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: std::collections::BTreeMap<String, f64>,
}

/// Runs one workload in its own child process, so peak memory and caches
/// are that workload's alone.
fn run_child(def: &Def, trace: bool, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        def.name,
        "--seed",
        &args.settings.seed.to_string(),
    ])
    .args([
        "--seconds",
        &args.settings.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .arg("--out-dir")
    .arg(&args.out_dir)
    .stderr(std::process::Stdio::inherit());
    if args.settings.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("{}: {e}", def.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no result line", def.name))?;
    let value = telemetry::json::parse(line).map_err(|e| format!("{}: {e}", def.name))?;
    let count = |key: &str| {
        value
            .num(key)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{}: no `{key}`", def.name))
    };
    let mut metrics = std::collections::BTreeMap::new();
    if let Some(telemetry::json::Value::Obj(map)) = value.get("metrics") {
        for (name, m) in map {
            metrics.insert(
                name.clone(),
                m.num("value").ok_or_else(|| format!("{name}: no value"))?,
            );
        }
    }
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs every workload (children, one after another) and prints one table.
fn run_every(trace: bool, args: &Args) -> Result<Vec<ChildResult>, String> {
    let results: Vec<ChildResult> = DEFS
        .iter()
        .map(|def| run_child(def, trace, args))
        .collect::<Result<_, _>>()?;
    let rows: Vec<(&str, &str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    };
    println!(
        "{}{}",
        util::provenance(args.settings.seed),
        label(args.settings)
    );
    print!("{:<36} {:<8} {:<7}", "metric", "unit", "better");
    DEFS.iter().for_each(|d| print!(" {:>14}", d.name));
    println!();
    for (name, unit, better) in rows {
        print!("{name:<36} {unit:<8} {better:<7}");
        for r in &results {
            match r.metrics.get(name) {
                Some(v) => print!(" {v:>14.4}"),
                None => return Err(format!("a run did not report {name}")),
            }
        }
        println!();
    }
    print!("{:<36} {:<8} {:<7}", "fail_share", "share", "lower");
    for r in &results {
        print!(
            " {:>14.6}",
            util::ratio(r.failed as f64, r.attempted as f64)
        );
    }
    println!();
    Ok(results)
}

fn failed_ops(results: &[ChildResult]) -> u64 {
    results.iter().map(|r| r.failed).sum()
}

/// Runs `all` and `layers` twice and compares: every end-to-end pair must
/// agree within the metric's bound, and the exact counts must be equal.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for trace in [false, true] {
        let first = run_every(trace, args)?;
        let second = run_every(trace, args)?;
        ok &= failed_ops(&first) + failed_ops(&second) == 0;
        println!(
            "{:<36} {:<12} {:>14} {:>14} {:>9}",
            "metric", "workload", "first", "second", "diff"
        );
        for ((def, a), b) in DEFS.iter().zip(&first).zip(&second) {
            for (name, va) in &a.metrics {
                let vb = b.metrics.get(name).copied().unwrap_or(f64::NAN);
                let diff = util::ratio((vb - va).abs(), va.abs());
                let limit = if EXACT.contains(&name.as_str()) {
                    Some(0.0)
                } else {
                    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
                };
                let verdict = match limit {
                    Some(limit) if diff.is_nan() || diff > limit => {
                        ok = false;
                        format!("  EXCEEDS {:.1}%", limit * 100.0)
                    }
                    _ => String::new(),
                };
                if limit.is_some() {
                    println!(
                        "{name:<36} {:<12} {va:>14.4} {vb:>14.4} {:>8.2}%{verdict}",
                        def.name,
                        diff * 100.0
                    );
                }
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // The engine must never size its pool from the environment: every run
    // pins its thread count explicitly.
    std::env::remove_var(pool::THREADS_ENV);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("suite: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let outcome = match &args.command {
        Command::Single { workload, trace } => match workload::def(workload) {
            None => Err(format!("unknown workload `{workload}`")),
            Some(def) => run_single(def, *trace, &args).map(|(line, correct)| {
                println!("{line}");
                correct
            }),
        },
        Command::All => run_every(false, &args).map(|r| failed_ops(&r) == 0),
        Command::Layers => run_every(true, &args).map(|r| failed_ops(&r) == 0),
        Command::Repeat => repeat(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("suite: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Value;

    fn quick() -> Settings {
        Settings {
            seed: 1,
            seconds: 0.2,
            scale: Scale::Quick,
        }
    }

    /// `suite all --quick`, in process: every workload reports every
    /// end-to-end metric, finite and non-zero, and no op fails.
    #[test]
    fn quick_end_to_end_reports_every_metric() {
        for def in &DEFS {
            let e = harness::run(def, quick()).unwrap_or_else(|e| panic!("{}: {e}", def.name));
            assert_eq!(e.failed, 0, "{}: {:?}", def.name, e.notes);
            assert!(e.attempted > 0 && e.query_samples >= 120, "{}", def.name);
            for (m, value) in END_TO_END.iter().zip(e.values()) {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {} = {value}",
                    def.name,
                    m.name
                );
            }
        }
    }

    /// `suite layers --quick`, in process: every named layer metric, and a
    /// span file in which every span has a parent or is a top-level op.
    #[test]
    fn quick_layers_report_every_metric() {
        let out = PathBuf::from(".suite_tmp").join(format!("test-out-{}", std::process::id()));
        for def in &DEFS {
            let r = layers::run(def, quick(), &out).unwrap_or_else(|e| panic!("{}: {e}", def.name));
            assert_eq!(r.failed, 0, "{}: {:?}", def.name, r.notes);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0), "{}", def.name);
            for (name, value) in &r.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", def.name);
            }
            let spans = std::fs::read_to_string(&r.trace_file).expect("span file");
            let spans = telemetry::json::parse(&spans).expect("span file is JSON");
            let spans = spans.as_arr().expect("array of spans");
            assert!(!spans.is_empty());
            for s in spans {
                let top_level = s.get("parent") == Some(&Value::Null);
                let parent = s.num("parent").map(|p| p as usize);
                assert!(
                    top_level && s.num("op") >= Some(1.0)
                        || parent < s.num("id").map(|i| i as usize)
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    /// BENCHMARK.json is written by hand; it must say what this binary does.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = telemetry::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("JSON");
        assert_eq!(doc.num("run_seconds"), Some(RUN_SECONDS));
        let items = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("array")
                .to_vec()
        };
        let workloads = items("workloads");
        assert_eq!(workloads.len(), DEFS.len());
        for (w, def) in workloads.iter().zip(&DEFS) {
            assert_eq!(w.str("name"), Some(def.name));
            assert_eq!(w.str("why"), Some(def.why));
            assert!(def.why.len() <= 200);
        }
        let e2e = items("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (j.str("name"), j.str("unit"), j.str("better")),
                (Some(m.name), Some(m.unit), Some(m.better))
            );
            assert_eq!(j.num("bound"), Some(m.bound), "{}", m.name);
        }
        let layers = items("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (j.str("name"), j.str("unit"), j.str("better")),
                (Some(m.0), Some(m.1), Some(m.2))
            );
        }
    }

    #[test]
    fn arguments_require_a_seed_and_one_command() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("all").is_err());
        assert!(parse("all --seed 1 --workload needle").is_err());
        assert!(parse("--workload needle --seed 1 --seconds 0").is_err());
        let a = parse("--workload needle --seed 7 --seconds 10 --trace 1").expect("contract form");
        assert_eq!(
            a.command,
            Command::Single {
                workload: "needle".into(),
                trace: true
            }
        );
        assert_eq!((a.settings.seed, a.settings.seconds), (7, 10.0));
        assert_eq!(
            parse("repeat --seed 2 --quick")
                .expect("repeat")
                .settings
                .scale,
            Scale::Quick
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(0, 0, &[("a.b", 1.5, "ms")]).expect("finite");
        let v = telemetry::json::parse(&line).expect("JSON");
        let Value::Obj(map) = &v else {
            panic!("object")
        };
        assert_eq!(
            map.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(
            (v.num("attempted"), v.get("correct")),
            (Some(1.0), Some(&Value::Bool(true)))
        );
        assert!(result_json(1, 0, &[("x", f64::NAN, "ms")]).is_err());
    }
}
