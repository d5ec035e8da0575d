//! `query <archive.lgb> <command>` and `query <archive.lgb> [filter] --agg
//! <spec>`.

use crate::Flags;
use loggrep::{AggDrift, AggSpec, BlockFile, PlanDrift};
use std::io::Write;

/// Splits `--agg <spec>` (or `--agg=<spec>`) out of a `query` argument
/// list, returning the remaining positionals and the aggregate spec.
pub(crate) fn split_agg_flag(args: &[String]) -> Result<(Vec<&str>, Option<&str>), String> {
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

/// Runs a line query block by block, printing block *k*'s hits before
/// block *k+1* is touched.
pub(crate) fn query_file(path: &str, command: &str, flags: &Flags) -> Result<(), String> {
    let file = BlockFile::open(path).map_err(|e| e.to_string())?;
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut total = 0usize;
    let mut drift = PlanDrift::default();
    let mut plan_elapsed = std::time::Duration::ZERO;
    let mut elapsed = std::time::Duration::ZERO;
    for archive in file.blocks() {
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
/// all blocks ([`BlockFile::query_agg`]), so a multi-block archive answers
/// exactly like a single-block one.
pub(crate) fn query_agg_file(
    path: &str,
    filter: Option<&str>,
    spec_text: &str,
    flags: &Flags,
) -> Result<(), String> {
    let spec = AggSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let file = BlockFile::open(path).map_err(|e| e.to_string())?;
    let (merged, stats) = file.query_agg(filter, &spec).map_err(|e| e.to_string())?;
    if flags.json {
        println!("{}", merged.to_json());
        return Ok(());
    }
    print!("{merged}");
    let layer = stats.iter().filter_map(|s| s.agg_layer).max();
    let decompressed: usize = stats.iter().map(|s| s.capsules_decompressed).sum();
    eprintln!(
        "(answered at the {} layer, {decompressed} capsule(s) decompressed)",
        layer.map_or("metadata", |l| l.name()),
    );
    if flags.trace {
        let mut consistent = true;
        for (archive, stats) in file.blocks().iter().zip(&stats) {
            let predicted = archive
                .explain_agg(filter, &spec)
                .map_err(|e| e.to_string())?;
            consistent &= AggDrift::new(predicted, filter.is_some(), stats).consistent();
        }
        eprintln!(
            "aggregate drift: {}",
            if consistent { "within plan bounds" } else { "EXCEEDED plan bounds" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
